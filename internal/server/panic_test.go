package server

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"ccolor"
	"ccolor/internal/promtext"
)

// TestWorkerSurvivesSolverPanic makes one solve panic while an identical
// job is parked on its flight. The panicking job and its waiter must both
// fail with the panic as their error, the panic must be counted, and each
// worker's next job must come out byte-identical to the same job on a
// fresh server.
func TestWorkerSurvivesSolverPanic(t *testing.T) {
	bad := gnpSpec(t, ccolor.ModelCClique, 64, 0.08, 31)
	next := []Spec{
		gnpSpec(t, ccolor.ModelCClique, 64, 0.08, 32),
		gnpSpec(t, ccolor.ModelCClique, 64, 0.08, 33),
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	// Both follow-up jobs wait for each other inside the hook, so with two
	// workers each one runs on a different worker — one of them the worker
	// that panicked.
	var barrier sync.WaitGroup
	barrier.Add(len(next))
	solveHook = func(spec *Spec) {
		switch spec.Inst {
		case bad.Inst:
			close(entered)
			<-release
			panic("injected solver fault")
		case next[0].Inst, next[1].Inst:
			barrier.Done()
			barrier.Wait()
		}
	}
	defer func() { solveHook = nil }()

	srv := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: -1})
	defer srv.Drain(context.Background())

	leader, err := srv.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	waiter, err := srv.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	// The second worker parks the identical job on the leader's flight.
	key := keyFor(&bad)
	for deadline := time.Now().Add(10 * time.Second); ; {
		srv.flightMu.Lock()
		parked := srv.flights[key] != nil && len(srv.flights[key].waiters) == 1
		srv.flightMu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("identical job never parked on the in-progress flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for name, job := range map[string]*Job{"leader": leader, "waiter": waiter} {
		if _, err := job.Wait(); err == nil || !strings.Contains(err.Error(), "injected solver fault") {
			t.Fatalf("%s: err %v, want the recovered panic", name, err)
		}
	}

	var wg sync.WaitGroup
	got := make([]*Result, len(next))
	errs := make([]error, len(next))
	for i := range next {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = srv.Do(context.Background(), next[i])
		}(i)
	}
	wg.Wait()
	solveHook = nil
	fresh := New(Config{Workers: 1, QueueDepth: 8})
	defer fresh.Drain(context.Background())
	for i, spec := range next {
		if errs[i] != nil {
			t.Fatalf("job %d after the panic: %v", i, errs[i])
		}
		want, err := fresh.Do(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(got[i].Report)
		b, _ := json.Marshal(want.Report)
		if !bytes.Equal(a, b) {
			t.Fatalf("job %d after the panic differs from a fresh server's", i)
		}
	}

	snap := srv.Metrics()
	if snap.Panics != 1 {
		t.Fatalf("panics = %d, want 1", snap.Panics)
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, snap)
	if probs := promtext.Lint(bytes.NewReader(buf.Bytes())); len(probs) != 0 {
		t.Fatalf("exposition lint problems: %v", probs)
	}
	if !bytes.Contains(buf.Bytes(), []byte("ccserve_panics_total 1\n")) {
		t.Fatalf("exposition missing ccserve_panics_total 1")
	}
}
