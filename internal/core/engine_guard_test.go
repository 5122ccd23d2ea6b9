package core

import "testing"

// TestEngineGuardBothModes: driving a machine's engine from two places
// panics with the documented message in both misuse modes — reentrant
// (Run from inside one of its own events) and cross-goroutine (a second
// goroutine entering Run while the first is live). The engine is the
// one NewMachine wires into the network, nodes and kernels, so the
// guard holds for the engine every simulation actually runs on.
func TestEngineGuardBothModes(t *testing.T) {
	const msg = "sim: Engine.Run entered twice (reentrant or concurrent use; one engine per goroutine)"
	expectPanic := func(t *testing.T, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic")
			}
			if s, ok := r.(string); !ok || s != msg {
				t.Fatalf("panic %q, want %q", r, msg)
			}
		}()
		f()
	}
	newMachine := func(t *testing.T) *Machine {
		t.Helper()
		m, err := NewMachine(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("sequential_reentrant", func(t *testing.T) {
		m := newMachine(t)
		m.E.Schedule(0, func() { m.E.RunUntilIdle() })
		expectPanic(t, func() { m.E.RunUntilIdle() })
	})

	t.Run("sequential_cross_goroutine", func(t *testing.T) {
		m := newMachine(t)
		block := make(chan struct{})
		entered := make(chan struct{})
		done := make(chan struct{})
		m.E.Schedule(0, func() {
			close(entered)
			<-block
		})
		go func() {
			defer close(done)
			m.E.RunUntilIdle()
		}()
		<-entered
		expectPanic(t, func() { m.E.Run(0) })
		close(block)
		<-done
	})
}
