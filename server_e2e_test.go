package mcspeedup_test

// End-to-end test of the mcs-serve daemon: the real binary is started on
// an ephemeral port and driven over HTTP exactly as a client would,
// including the acceptance criteria of the serving subsystem — the
// /v1/analyze response is byte-identical to mcs-analyze -json on the same
// input, a repeated request is a cache hit visible in /metrics, 32
// concurrent clients are served, SIGTERM drains gracefully, and /readyz
// flips to 503 before the listener closes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startServe launches the daemon on an ephemeral port and returns its
// base URL and a wait function that sends SIGTERM and reports the exit
// error.
func startServe(t *testing.T, bin string, args ...string) (string, func() error) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first stderr line is the startup handshake:
	// "mcs-serve: listening on http://127.0.0.1:PORT".
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
			}
		}
	}()
	var base string
	select {
	case base = <-addrCh:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("mcs-serve did not report a listening address")
	}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			return fmt.Errorf("mcs-serve did not exit within the drain budget")
		}
	}
	t.Cleanup(func() { stop() })
	return base, stop
}

func httpPost(t *testing.T, url, body string) (*http.Response, []byte) {
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

func httpGet(t *testing.T, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d (%s)", url, resp.StatusCode, data)
	}
	return data
}

// metricValue extracts the value of an exact metric line ("name 3") or a
// labeled one when name includes the label set.
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
	t.Fatalf("metric %s not found in:\n%s", name, metrics)
	return 0
}

func TestServerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("server e2e skipped in -short mode")
	}
	dir := buildCLIs(t)
	bin := func(tool string) string { return filepath.Join(dir, tool) }

	// The paper's flight-management task set (§VI.A).
	fms, errOut, err := runCLI(t, bin("mcs-gen"), nil, "-fms")
	if err != nil {
		t.Fatalf("mcs-gen -fms: %v\n%s", err, errOut)
	}
	// The CLI reference output: minimal overrun preparation at speed 4
	// (the configuration is SAFE there, so the exit code is 0).
	want, errOut, err := runCLI(t, bin("mcs-analyze"), []byte(fms), "-json", "-minx", "-speed", "4", "-")
	if err != nil {
		t.Fatalf("mcs-analyze -json: %v\n%s", err, errOut)
	}

	base, stop := startServe(t, bin("mcs-serve"))

	// Liveness first.
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(httpGet(t, base+"/healthz"), &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz: %v %+v", err, health)
	}

	// Acceptance: byte-identical to the CLI on the same input.
	body := `{"tasks":` + fms + `,"minx":true,"speed":4}`
	resp, got := httpPost(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d (%s)", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("first analyze X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got, []byte(want)) {
		t.Errorf("server response differs from mcs-analyze -json:\n--- server ---\n%s\n--- cli ---\n%s", got, want)
	}

	// Acceptance: the repeat — with task order reversed to prove the
	// canonical content hash, not the raw body, is the key — is a hit.
	var tasks []json.RawMessage
	if err := json.Unmarshal([]byte(fms), &tasks); err != nil {
		t.Fatal(err)
	}
	for i, j := 0, len(tasks)-1; i < j; i, j = i+1, j-1 {
		tasks[i], tasks[j] = tasks[j], tasks[i]
	}
	reversed, err := json.Marshal(tasks)
	if err != nil {
		t.Fatal(err)
	}
	resp, got2 := httpPost(t, base+"/v1/analyze", `{"tasks":`+string(reversed)+`,"minx":true,"speed":4}`)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat analyze X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got2, []byte(want)) {
		t.Error("cached response differs from the CLI reference")
	}
	metrics := httpGet(t, base+"/metrics")
	if hits := metricValue(t, metrics, "mcs_cache_hits_total"); hits < 1 {
		t.Errorf("cache hits = %g after a repeated request", hits)
	}

	// 32 concurrent clients across every analysis endpoint.
	const clients = 32
	requests := []struct{ endpoint, body string }{
		{"/v1/analyze", body},
		{"/v1/analyze", fms},
		{"/v1/speedup", fms},
		{"/v1/reset", `{"tasks":` + fms + `,"speed":4}`},
		{"/v1/simulate", `{"tasks":` + fms + `,"workload":"random","seed":3,"horizon":100000}`},
	}
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			req := requests[i%len(requests)]
			resp, data := httpPost(t, base+req.endpoint, req.body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d %s: %d (%s)", i, req.endpoint, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()

	// The request counters must account for every client plus the two
	// warm-up analyzes.
	metrics = httpGet(t, base+"/metrics")
	var total float64
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "mcs_requests_total{endpoint=\"/v1/") {
			var v float64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v)
			total += v
		}
	}
	if total != clients+2 {
		t.Errorf("POST requests recorded = %g, want %d", total, clients+2)
	}

	// Contradictory flags are rejected by the service like by the CLI.
	resp, _ = httpPost(t, base+"/v1/analyze", `{"tasks":`+fms+`,"x":0.5,"minx":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("x+minx: %d, want 400", resp.StatusCode)
	}

	// Acceptance: /v1/batch per-item results are byte-identical to the
	// equivalent individual /v1/analyze calls, with 32 clients posting
	// the same batch concurrently.
	items := []string{
		body,
		fms,
		`{"tasks":` + fms + `,"terminate":true,"speed":4}`,
		`{"tasks":` + fms + `,"y":2,"minx":true,"speed":4}`,
	}
	individual := make([][]byte, len(items))
	for i, item := range items {
		resp, data := httpPost(t, base+"/v1/analyze", item)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze item %d: %d (%s)", i, resp.StatusCode, data)
		}
		individual[i] = bytes.TrimRight(data, "\n")
	}
	batchReq := `{"items":[` + strings.Join(items, ",") + `]}`
	var bwg sync.WaitGroup
	bwg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer bwg.Done()
			resp, data := httpPost(t, base+"/v1/batch", batchReq)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch client %d: %d (%s)", c, resp.StatusCode, data)
				return
			}
			var doc struct {
				Count  int `json:"count"`
				Errors int `json:"errors"`
				Items  []struct {
					Index  int             `json:"index"`
					Error  string          `json:"error"`
					Result json.RawMessage `json:"result"`
				} `json:"items"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Errorf("batch client %d: decoding response: %v", c, err)
				return
			}
			if doc.Count != len(items) || doc.Errors != 0 || len(doc.Items) != len(items) {
				t.Errorf("batch client %d: count=%d errors=%d items=%d", c, doc.Count, doc.Errors, len(doc.Items))
				return
			}
			for i, item := range doc.Items {
				if item.Index != i || item.Error != "" {
					t.Errorf("batch client %d item %d: index=%d error=%q", c, i, item.Index, item.Error)
					continue
				}
				if !bytes.Equal(item.Result, individual[i]) {
					t.Errorf("batch client %d item %d: result differs from individual /v1/analyze body", c, i)
				}
			}
		}(c)
	}
	bwg.Wait()

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

func TestReadyzFlipsBeforeListenerCloses(t *testing.T) {
	if testing.Short() {
		t.Skip("server e2e skipped in -short mode")
	}
	dir := buildCLIs(t)
	base, stop := startServe(t, filepath.Join(dir, "mcs-serve"), "-drain-grace", "3s")

	readyz := func() (int, string) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		var doc struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc.Status
	}

	// Readiness and liveness both up after the handshake.
	if code, status := readyz(); code != http.StatusOK || status != "ready" {
		t.Fatalf("readyz before drain: %d %q, want 200 ready", code, status)
	}
	httpGet(t, base+"/healthz")

	// SIGTERM: /readyz must flip to 503 "draining" while the listener
	// (and /healthz) stay up for the -drain-grace window.
	done := make(chan error, 1)
	go func() { done <- stop() }()
	flipped := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if code, status := readyz(); code == http.StatusServiceUnavailable && status == "draining" {
			flipped = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("/readyz never returned 503 draining during the grace window")
	}
	// Liveness is not readiness: the draining process still answers.
	httpGet(t, base+"/healthz")
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown after drain grace: %v", err)
	}
}
