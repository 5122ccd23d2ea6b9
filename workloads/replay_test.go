package workloads_test

// Mid-run checkpoint equivalence over the real SPLASH kernels: for
// each workload, record a checkpoint at three sim-time points, restore
// each on a fresh machine, resume, and require results and the full
// metrics export to be byte-identical to the uninterrupted reference.
// Policies rotate across workloads so every placement flavor gets
// exercised against real sharing patterns, not just the chaos mix.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"prism"
	"prism/internal/core"
	"prism/workloads"
)

var replayPolicies = []string{
	"SCOMA", "LANUMA", "SCOMA-70", "Dyn-FCFS", "Dyn-Util", "Dyn-LRU", "SCOMA", "Dyn-FCFS",
}

func replayConfig(t *testing.T, polName string) prism.Config {
	t.Helper()
	cfg := workloads.ConfigForSize(workloads.MiniSize)
	pol, err := prism.PolicyByName(polName)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = pol
	if polName != "SCOMA" && polName != "LANUMA" {
		caps := make([]int, cfg.Nodes)
		for i := range caps {
			caps[i] = 3
		}
		cfg.PageCacheCaps = caps
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func exportJSON(t *testing.T, m *prism.Machine, wl, pol string) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.ExportMetrics(wl, pol).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestSplashMidRunCheckpointEquivalence(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = names[:2]
	}
	for i, name := range names {
		name, polName := name, replayPolicies[i]
		t.Run(name+"/"+polName, func(t *testing.T) {
			mk := func() prism.Workload {
				w, err := workloads.NewWorkload(name, workloads.MiniSize, nil)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			newM := func() *prism.Machine {
				m, err := prism.New(prism.WithConfig(func(c *prism.Config) {
					*c = replayConfig(t, polName)
				}))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}

			refM := newM()
			ref, err := refM.Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			refExport := exportJSON(t, refM, name, ref.Policy)

			points := []struct {
				label string
				at    int64
			}{
				{"quarter", int64(ref.Cycles) / 4},
				{"half", int64(ref.Cycles) / 2},
				{"three-quarter", int64(ref.Cycles) * 3 / 4},
			}
			for _, pt := range points {
				at := pt.at
				t.Run(pt.label, func(t *testing.T) {
					snap, recRes, err := newM().RecordCheckpoint(mk(), prism.Time(at))
					if errors.Is(err, core.ErrNoQuiescentFill) {
						t.Skipf("no quiescent barrier fill at/after t=%d: %v", at, err)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(recRes, ref) {
						t.Fatal("recording perturbed the run")
					}
					m2 := newM()
					if err := m2.RestoreSnapshot(mk(), snap); err != nil {
						t.Fatal(err)
					}
					res, err := m2.Resume(mk())
					if err != nil {
						t.Fatal(err)
					}
					if err := m2.CheckInvariants(); err != nil {
						t.Fatalf("invariants after resume: %v", err)
					}
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("resumed results differ at t=%d:\nref: %+v\ngot: %+v", at, ref, res)
					}
					if got := exportJSON(t, m2, name, res.Policy); !bytes.Equal(got, refExport) {
						t.Fatalf("metrics export differs from uninterrupted run at t=%d", at)
					}
				})
			}
		})
	}
}
