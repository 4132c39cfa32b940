package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoCoalescesConcurrentCallers is the singleflight contract: 64
// concurrent calls for one key run the function exactly once and all
// callers share its result.
func TestDoCoalescesConcurrentCallers(t *testing.T) {
	var g flightGroup
	var executions atomic.Int64
	gate := make(chan struct{})
	const callers = 64

	results := make([][]byte, callers)
	shareds := make([]bool, callers)
	var started, done sync.WaitGroup
	started.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			started.Done()
			val, shared, err := g.Do("key", func() ([]byte, error) {
				executions.Add(1)
				<-gate // hold the flight open until every caller launched
				return []byte("result"), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], shareds[i] = val, shared
		}(i)
	}
	started.Wait()
	// Every goroutine is launched; the leader is parked on the gate, so
	// the remaining 63 calls must join its flight. Wait until they have
	// all registered before releasing the leader.
	for g.Stats().Dedup < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	done.Wait()

	if n := executions.Load(); n != 1 {
		t.Errorf("fn executed %d times, want exactly 1", n)
	}
	leaders := 0
	for i := range results {
		if string(results[i]) != "result" {
			t.Errorf("caller %d got %q", i, results[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d leaders, want 1", leaders)
	}
	st := g.Stats()
	if st.Flights != 1 || st.Dedup != callers-1 {
		t.Errorf("stats = %+v, want {Flights:1 Dedup:%d}", st, callers-1)
	}
}

// TestDoDistinctKeysDoNotCoalesce: different keys run independently.
func TestDoDistinctKeysDoNotCoalesce(t *testing.T) {
	var g flightGroup
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		val, shared, err := g.Do(key, func() ([]byte, error) { return []byte(key), nil })
		if err != nil || shared || string(val) != key {
			t.Errorf("Do(%q) = %q, shared=%v, err=%v", key, val, shared, err)
		}
	}
	st := g.Stats()
	if st.Flights != 8 || st.Dedup != 0 {
		t.Errorf("stats = %+v, want {Flights:8 Dedup:0}", st)
	}
}

// TestDoForgetsKeyAfterCompletion: sequential calls each run their own
// flight — the group coalesces herds, it is not a cache.
func TestDoForgetsKeyAfterCompletion(t *testing.T) {
	var g flightGroup
	var executions atomic.Int64
	for i := 0; i < 3; i++ {
		if _, shared, _ := g.Do("key", func() ([]byte, error) {
			executions.Add(1)
			return nil, nil
		}); shared {
			t.Errorf("sequential call %d reported shared", i)
		}
	}
	if n := executions.Load(); n != 3 {
		t.Errorf("fn executed %d times across sequential calls, want 3", n)
	}
}

// TestDoSharesErrors: a failing flight fails every waiter identically.
func TestDoSharesErrors(t *testing.T) {
	var g flightGroup
	wantErr := errors.New("boom")
	gate := make(chan struct{})
	var done sync.WaitGroup
	errs := make([]error, 8)
	done.Add(len(errs))
	for i := range errs {
		go func(i int) {
			defer done.Done()
			_, _, errs[i] = g.Do("key", func() ([]byte, error) {
				<-gate
				return nil, wantErr
			})
		}(i)
	}
	for g.Stats().Dedup < uint64(len(errs)-1) {
		runtime.Gosched()
	}
	close(gate)
	done.Wait()
	for i, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Errorf("caller %d: err = %v, want %v", i, err, wantErr)
		}
	}
}

// TestDoPanicReleasesFollowers: a panicking leader re-raises on its own
// goroutine but must not strand followers — they get a flightPanic.
func TestDoPanicReleasesFollowers(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	followerErr := make(chan error, 1)
	leaderPanicked := make(chan any, 1)

	go func() {
		defer func() { leaderPanicked <- recover() }()
		g.Do("key", func() ([]byte, error) {
			<-gate
			panic("walker bug")
		})
	}()
	for g.Stats().Flights == 0 {
		runtime.Gosched()
	}
	go func() {
		_, _, err := g.Do("key", func() ([]byte, error) { return nil, nil })
		followerErr <- err
	}()
	for g.Stats().Dedup == 0 {
		runtime.Gosched()
	}
	close(gate)

	if r := <-leaderPanicked; r != "walker bug" {
		t.Errorf("leader recover() = %v, want the original panic value", r)
	}
	err := <-followerErr
	var pe *flightPanic
	if !errors.As(err, &pe) || pe.Value != "walker bug" {
		t.Errorf("follower err = %v, want *flightPanic{walker bug}", err)
	}
}

// TestCoalesceThunderingHerd is the singleflight acceptance test: 64
// concurrent identical misses perform exactly one analysis. The
// sim-horizon cap is raised so the one walk takes long enough (hundreds
// of ms) that every follower provably arrives while it runs.
func TestCoalesceThunderingHerd(t *testing.T) {
	svc := New(Config{MaxSimHorizon: 100_000_000})
	svc.SetReady()
	mux := svc.Handler()

	// A dense simulate request: 8 tasks at period 20 over a 2e7-tick
	// horizon is ~2M simulated jobs, far beyond goroutine launch skew.
	var tasks []string
	for i := 0; i < 8; i++ {
		if i%2 == 1 {
			tasks = append(tasks, fmt.Sprintf(
				`{"name":"t%d","crit":"HI","period":[20,20],"deadline":[10,20],"wcet":[1,2]}`, i))
		} else {
			tasks = append(tasks, fmt.Sprintf(
				`{"name":"t%d","crit":"LO","period":[20,20],"deadline":[20,20],"wcet":[1,1]}`, i))
		}
	}
	body := `{"tasks":[` + strings.Join(tasks, ",") + `],"workload":"random","seed":3,"horizon":5000000}`

	const herd = 64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	codes := make([]int, herd)
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			<-gate
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	close(gate)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("herd member %d: status %d", i, code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	metrics := rec.Body.Bytes()

	flights := metricValue(t, metrics, "mcs_coalesce_flights_total")
	dedup := metricValue(t, metrics, "mcs_coalesce_dedup_total")
	hits := metricValue(t, metrics, "mcs_cache_hits_total")
	misses := metricValue(t, metrics, "mcs_cache_misses_total")
	if flights != 1 {
		t.Errorf("mcs_coalesce_flights_total = %g, want exactly 1 analysis for the herd", flights)
	}
	if dedup < 1 {
		t.Errorf("mcs_coalesce_dedup_total = %g, want >= 1 (no coalescing happened)", dedup)
	}
	// Every request did exactly one cache lookup and either hit, led, or
	// joined the flight: the three outcomes partition the herd.
	if flights+dedup+hits != herd || hits+misses != herd {
		t.Errorf("flights=%g dedup=%g hits=%g misses=%g do not partition the %d-request herd",
			flights, dedup, hits, misses, herd)
	}
}

// metricValue extracts the value of an unlabeled metric line ("name 3").
func metricValue(t *testing.T, metrics []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
