package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcspeedup/internal/core"
	"mcspeedup/internal/dbf"
	"mcspeedup/internal/examplesets"
	"mcspeedup/internal/fleet"
	"mcspeedup/internal/gen"
	"mcspeedup/internal/rat"
	"mcspeedup/internal/task"
)

// tableIJSON is the paper's Table-I example in the mcs-gen JSON format.
const tableIJSON = `[
  {"name":"tau1","crit":"HI","period":[10,10],"deadline":[6,9],"wcet":[2,4]},
  {"name":"tau2","crit":"LO","period":[10,10],"deadline":[10,10],"wcet":[2,2]}
]`

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestAnalyzeMatchesCoreReport(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/analyze", tableIJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q", got)
	}
	report, err := core.Analyze(examplesets.TableI(), rat.Two)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimRight(body, "\n"), want) {
		t.Errorf("response differs from core report:\n%s\n---\n%s", body, want)
	}
}

func TestAnalyzeCacheHitOnSemanticallyIdenticalRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, first := post(t, ts.URL+"/v1/analyze", tableIJSON)

	// Same system: task order flipped, field order scrambled, envelope
	// form instead of a bare array, default speed made explicit.
	variant := `{"speed": 2, "tasks": [
	  {"wcet":[2,2],"period":[10,10],"crit":"LO","deadline":[10,10],"name":"tau2"},
	  {"deadline":[6,9],"name":"tau1","wcet":[2,4],"crit":"HI","period":[10,10]}
	]}`
	resp, second := post(t, ts.URL+"/v1/analyze", variant)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("variant request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached response differs from the original")
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), "mcs_cache_hits_total 1") {
		t.Errorf("metrics missing the cache hit:\n%s", metricsBody)
	}
}

func TestAnalyzeDifferentOptionsMissTheCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", tableIJSON)
	resp, _ := post(t, ts.URL+"/v1/analyze", `{"tasks":`+tableIJSON+`,"speed":3}`)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different speed served from cache (X-Cache = %q)", got)
	}
}

func TestSpeedupAndResetEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/speedup", tableIJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("speedup status %d: %s", resp.StatusCode, body)
	}
	var sp struct {
		Fingerprint string `json:"fingerprint"`
		Speedup     struct {
			Value string `json:"value"`
			Exact bool   `json:"exact"`
		} `json:"speedup"`
	}
	if err := json.Unmarshal(body, &sp); err != nil {
		t.Fatal(err)
	}
	if sp.Speedup.Value != "4/3" || !sp.Speedup.Exact || len(sp.Fingerprint) != 64 {
		t.Errorf("speedup response %+v", sp)
	}
	// The served document carries the answer only: how many events the
	// walk examined depends on its pruning, so it goes to /metrics
	// (mcs_walk_events_total) instead of the body.
	const wantSpeedup = `{
  "fingerprint": "9762ee383b3d0e6b2cc3fcbb48a9370c448ae90d4da006cff31a31348d3b81fd",
  "speedup": {
    "value": "4/3",
    "lowerBound": "4/3",
    "exact": true,
    "witnessDelta": 3
  }
}
`
	if string(body) != wantSpeedup {
		t.Errorf("speedup body:\n%s\nwant\n%s", body, wantSpeedup)
	}

	resp, body = post(t, ts.URL+"/v1/reset", `{"tasks":`+tableIJSON+`,"speed":"2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reset status %d: %s", resp.StatusCode, body)
	}
	var rr struct {
		Speed string `json:"speed"`
		Reset struct {
			Value string `json:"value"`
		} `json:"reset"`
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Speed != "2" || rr.Reset.Value != "6" {
		t.Errorf("reset response %+v", rr)
	}
}

func TestTransformsOnSpeedupEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Terminating the LO task can only help: s_min must not increase.
	_, plain := post(t, ts.URL+"/v1/speedup", tableIJSON)
	resp, terminated := post(t, ts.URL+"/v1/speedup", `{"tasks":`+tableIJSON+`,"terminate":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, terminated)
	}
	if bytes.Equal(plain, terminated) {
		t.Error("terminate transform had no effect on the response document")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"tasks":` + tableIJSON + `,"workload":"sync","horizon":40,"collectJobs":true}`
	resp, data := post(t, ts.URL+"/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var run struct {
		Completed int   `json:"completed"`
		Misses    []any `json:"misses"`
		Episodes  []any `json:"episodes"`
		Jobs      []any `json:"jobs"`
	}
	if err := json.Unmarshal(data, &run); err != nil {
		t.Fatal(err)
	}
	if run.Completed == 0 || len(run.Misses) != 0 || len(run.Episodes) == 0 || len(run.Jobs) == 0 {
		t.Errorf("simulate run %+v", run)
	}
	// Deterministic per parameters: the repeat is a byte-identical hit.
	resp2, data2 := post(t, ts.URL+"/v1/simulate", body)
	if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(data, data2) {
		t.Error("identical simulate request not served from cache")
	}
	// A different seed on a random workload is a distinct entry.
	resp3, _ := post(t, ts.URL+"/v1/simulate",
		`{"tasks":`+tableIJSON+`,"workload":"random","seed":7,"horizon":40}`)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Error("distinct simulate request served from cache")
	}
}

func TestFleetEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"tasks":` + tableIJSON + `,"runs":64,"seed":9,"horizon":200,"overrun":0.05}`
	resp, data := post(t, ts.URL+"/v1/fleet", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}

	// The endpoint's bytes are the fleet engine's canonical JSON — the
	// same bytes cmd/mcs-sim -fleet -json emits for these parameters.
	set, err := task.ParseJSON([]byte(tableIJSON))
	if err != nil {
		t.Fatal(err)
	}
	acet := gen.DefaultACET()
	acet.OverrunProb = 0.05
	sum, err := fleet.Run(fleet.Params{
		Set: set, Runs: 64, Seed: 9, Speedup: rat.Two,
		Horizon: 200, Workers: 1, ACET: acet,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimRight(data, "\n"), want) {
		t.Errorf("response differs from fleet.Run:\n%s\n---\n%s", data, want)
	}
	if sum.Runs != 64 || sum.JobsReleased == 0 {
		t.Errorf("degenerate fleet summary %+v", sum)
	}

	// Deterministic per parameters: the repeat is a byte-identical hit.
	resp2, data2 := post(t, ts.URL+"/v1/fleet", body)
	if resp2.Header.Get("X-Cache") != "hit" || !bytes.Equal(data, data2) {
		t.Error("identical fleet request not served from cache")
	}
	// A different seed is a distinct cache entry.
	resp3, _ := post(t, ts.URL+"/v1/fleet", `{"tasks":`+tableIJSON+`,"runs":64,"seed":10,"horizon":200,"overrun":0.05}`)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Error("distinct fleet request served from cache")
	}

	// Replicates are counted once per computed request (the hit excluded).
	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), "mcs_fleet_runs_total 128") {
		t.Errorf("metrics missing mcs_fleet_runs_total 128:\n%s", metricsBody)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := map[string]struct {
		endpoint, body string
	}{
		"x with minx":        {"/v1/analyze", `{"tasks":` + tableIJSON + `,"x":0.5,"minx":true}`},
		"terminate with y":   {"/v1/analyze", `{"tasks":` + tableIJSON + `,"terminate":true,"y":2}`},
		"missing tasks":      {"/v1/analyze", `{"speed":2}`},
		"unknown field":      {"/v1/analyze", `{"tasks":` + tableIJSON + `,"speeed":2}`},
		"empty body":         {"/v1/analyze", ``},
		"duplicate names":    {"/v1/speedup", `[{"name":"x","crit":"LO","period":[10,10],"deadline":[10,10],"wcet":[2,2]},{"name":"x","crit":"LO","period":[10,10],"deadline":[10,10],"wcet":[2,2]}]`},
		"bad workload":       {"/v1/simulate", `{"tasks":` + tableIJSON + `,"workload":"storm"}`},
		"burst without gap":  {"/v1/simulate", `{"tasks":` + tableIJSON + `,"workload":"burst"}`},
		"huge horizon":       {"/v1/simulate", `{"tasks":` + tableIJSON + `,"horizon":999999999}`},
		"bad overrun prob":   {"/v1/simulate", `{"tasks":` + tableIJSON + `,"overrun":1.5}`},
		"infeasible x value": {"/v1/analyze", `{"tasks":` + tableIJSON + `,"x":7}`},
		"fleet without runs": {"/v1/fleet", `{"tasks":` + tableIJSON + `}`},
		"fleet runs cap":     {"/v1/fleet", `{"tasks":` + tableIJSON + `,"runs":999999}`},
		"fleet bad overrun":  {"/v1/fleet", `{"tasks":` + tableIJSON + `,"runs":10,"overrun":-0.5}`},
		"fleet huge horizon": {"/v1/fleet", `{"tasks":` + tableIJSON + `,"runs":10,"horizon":999999999}`},
		// A 2^24-scale speed with a budget: the run's tick grid does not
		// fit int64 over this horizon, which is the caller's input.
		"simulate tick grid": {"/v1/simulate", `{"tasks":` + tableIJSON + `,"speed":"16777213/16777216","budget":3,"horizon":100000}`},
		"fleet tick grid":    {"/v1/fleet", `{"tasks":` + tableIJSON + `,"runs":2,"speed":"16777213/16777216","budget":3,"horizon":100000}`},
	}
	for name, c := range cases {
		resp, body := post(t, ts.URL+c.endpoint, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s", name, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		path  string
		code  int
		allow string
	}{
		{"/v1/analyze", http.StatusMethodNotAllowed, http.MethodPost},
		{"/v1/batch", http.StatusMethodNotAllowed, http.MethodPost},
		{"/v1/cluster", http.StatusNotFound, ""},
	}
	for _, c := range cases {
		resp, _ := get(t, ts.URL+c.path)
		if resp.StatusCode != c.code {
			t.Errorf("GET %s: %d, want %d", c.path, resp.StatusCode, c.code)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("GET %s: Allow header %q, want %q", c.path, got, c.allow)
		}
	}
}

// TestOversizeBodyGets413 pins the MaxBodyBytes cap: a body over it is
// answered 413 with a JSON error on both body-reading paths, while a
// body under it is served.
func TestOversizeBodyGets413(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 512})
	pad := strings.Repeat(" ", 600)
	for _, c := range []struct{ endpoint, body string }{
		{"/v1/analyze", tableIJSON + pad},
		{"/v1/batch", batchBody(tableIJSON) + pad},
		{"/v1/session", tableIJSON + pad},
	} {
		resp, body := post(t, ts.URL+c.endpoint, c.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", c.endpoint, resp.StatusCode, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, "512 bytes") {
			t.Errorf("%s: error body %s", c.endpoint, body)
		}
	}
	if resp, body := post(t, ts.URL+"/v1/analyze", tableIJSON); resp.StatusCode != http.StatusOK {
		t.Errorf("under-cap analyze: status %d (%s)", resp.StatusCode, body)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Errorf("healthz body %s", body)
	}
}

func TestSaturationReturns429(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, AdmissionWait: 10 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only slot so any computation must wait and time out.
	if !srv.pool.TryAcquire() {
		t.Fatal("could not occupy the pool")
	}
	defer srv.pool.Release()

	resp, body := post(t, ts.URL+"/v1/analyze", tableIJSON)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cache hits must not require a slot: prime the cache by releasing,
	// computing, then re-occupying.
	srv.pool.Release()
	if resp, _ := post(t, ts.URL+"/v1/analyze", tableIJSON); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime failed: %d", resp.StatusCode)
	}
	if !srv.pool.TryAcquire() {
		t.Fatal("re-occupy")
	}
	resp, _ = post(t, ts.URL+"/v1/analyze", tableIJSON)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("cache hit blocked by a saturated pool: %d, X-Cache=%q",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
}

func TestMetricsExposition(t *testing.T) {
	ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/analyze", tableIJSON)
	post(t, ts.URL+"/v1/analyze", tableIJSON)
	post(t, ts.URL+"/v1/analyze", `{"bad json`)
	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	set, err := parseTasks(json.RawMessage(tableIJSON))
	if err != nil {
		t.Fatal(err)
	}
	walk, err := core.MinSpeedup(set)
	if err != nil || walk.Events == 0 {
		t.Fatalf("Table I walk: %+v, %v", walk, err)
	}
	for _, want := range []string{
		`mcs_requests_total{endpoint="/v1/analyze",code="200"} 2`,
		`mcs_requests_total{endpoint="/v1/analyze",code="400"} 1`,
		`mcs_request_duration_seconds_bucket{endpoint="/v1/analyze",le="+Inf"} 3`,
		`mcs_request_duration_seconds_count{endpoint="/v1/analyze"} 3`,
		"mcs_cache_hits_total 1",
		"mcs_cache_misses_total 1",
		"mcs_cache_evictions_total 0",
		"mcs_cache_entries 1",
		"mcs_cache_capacity",
		"mcs_cache_hit_ratio 0.5",
		"mcs_pool_in_flight 0",
		"mcs_pool_capacity",
		// The second identical request hit the cache before reaching the
		// coalescer, so exactly one flight ran and nothing deduped.
		"mcs_coalesce_flights_total 1",
		"mcs_coalesce_dedup_total 0",
		// The readiness gauge is 0 until SetReady (mcs-serve calls it
		// after bind; the bare handler test never does).
		"mcs_ready 0",
		"mcs_uptime_seconds",
		// One cache miss ran one Theorem-2 walk.
		fmt.Sprintf("mcs_walk_events_total %d", walk.Events),
		fmt.Sprintf("mcs_walk_jumps_total %d", walk.Jumps),
		"mcs_walk_inexact_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t, Config{MaxInFlight: 4})
	const clients = 32
	requests := []struct{ endpoint, body string }{
		{"/v1/analyze", tableIJSON},
		{"/v1/analyze", `{"tasks":` + tableIJSON + `,"speed":3}`},
		{"/v1/speedup", tableIJSON},
		{"/v1/speedup", `{"tasks":` + tableIJSON + `,"terminate":true}`},
		{"/v1/reset", `{"tasks":` + tableIJSON + `,"speed":3}`},
		{"/v1/reset", tableIJSON},
	}
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			req := requests[i%len(requests)]
			resp, body := post(t, ts.URL+req.endpoint, req.body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d (%s)", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	_, body := get(t, ts.URL+"/metrics")
	var total int
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "mcs_requests_total{") {
			var n int
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err == nil {
				total += n
			}
		}
	}
	if total != clients {
		t.Errorf("requests_total sums to %d, want %d", total, clients)
	}
}

func TestRunAnalysisPanicBoundary(t *testing.T) {
	// A dbf negative-interval panic descends from untrusted request input
	// and must come back as an input error (400), not kill the process.
	h := task.NewHI("h", 10, 5, 10, 2, 4)
	_, err := runAnalysis(func() ([]byte, error) {
		dbf.HIMode(&h, -1)
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), "negative interval") {
		t.Fatalf("err = %v; want a negative-interval input error", err)
	}
	if got := errorStatus(err); got != http.StatusBadRequest {
		t.Fatalf("errorStatus = %d, want %d", got, http.StatusBadRequest)
	}

	// Any other panic is a server bug: it must come back as an internal
	// error (500) instead of ending the process or dropping the
	// connection.
	_, err = runAnalysis(func() ([]byte, error) { panic("boom") })
	if err == nil || !errors.Is(err, errInternal) {
		t.Fatalf("err = %v; want an internal error", err)
	}
	if got := errorStatus(err); got != http.StatusInternalServerError {
		t.Fatalf("errorStatus = %d, want %d", got, http.StatusInternalServerError)
	}
}
