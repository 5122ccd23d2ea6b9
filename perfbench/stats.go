package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

	"prism"
	"prism/internal/metrics"
)

// simStats is the simulated-statistics digest: every core.Results field
// ("results/<Field>") and every exported instrument
// ("<component>/<name>"), summed over nodes and cells. Histograms
// contribute their count and sum; float values are kept in millionths
// so the sum does not depend on the order cells finish in.
type simStats map[string]int64

func micros(f float64) int64 { return int64(math.Round(f * 1e6)) }

// addResults adds every numeric field of one cell's Results.
func (s simStats) addResults(r prism.Results) {
	v := reflect.ValueOf(r)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		key := "results/" + t.Field(i).Name
		switch f.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			s[key] += int64(f.Uint())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			s[key] += f.Int()
		case reflect.Float32, reflect.Float64:
			s[key+"(1e-6)"] += micros(f.Float())
		case reflect.Slice:
			for j := 0; j < f.Len(); j++ {
				if e := f.Index(j); e.Kind() == reflect.Int {
					s[key] += e.Int()
				}
			}
		}
	}
}

// addExport adds every instrument of one cell's metrics export.
func (s simStats) addExport(e *metrics.Export) {
	s["export/cycles"] += int64(e.Cycles)
	for _, p := range e.Points {
		key := p.Component + "/" + p.Name
		switch p.Kind {
		case metrics.KindCounter:
			s[key] += int64(p.Value)
		case metrics.KindGauge:
			s[key+"(1e-6)"] += micros(p.Gauge)
		case metrics.KindHistogram:
			if p.Hist != nil {
				s[key+".count"] += int64(p.Hist.Count)
				s[key+".sum"] += int64(p.Hist.Sum)
			}
		}
	}
}

func (s simStats) equal(o simStats) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		if w, ok := o[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// lines renders the digest as sorted "name value" lines.
func (s simStats) lines() []string {
	out := make([]string, 0, len(s))
	for k, v := range s {
		out = append(out, fmt.Sprintf("%s %d", k, v))
	}
	sort.Strings(out)
	return out
}

// hash condenses the digest to a 48-bit integer, exact in a JSON
// number: two runs whose simulated statistics agree report the same
// value.
func (s simStats) hash() float64 {
	h := sha256.New()
	for _, ln := range s.lines() {
		h.Write([]byte(ln))
		h.Write([]byte{'\n'})
	}
	sum := h.Sum(nil)
	return float64(binary.BigEndian.Uint64(sum[:8]) >> 16)
}

// sum adds the named entries.
func (s simStats) sum(keys ...string) float64 {
	var t int64
	for _, k := range keys {
		t += s[k]
	}
	return float64(t)
}

// sumMatching adds the entries of one component whose name has the
// given prefix and suffix.
func (s simStats) sumMatching(component, prefix, suffix string) float64 {
	var t int64
	for k, v := range s {
		n, ok := strings.CutPrefix(k, component+"/")
		if ok && strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
			t += v
		}
	}
	return float64(t)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
