package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"mcspeedup/internal/core"
	"mcspeedup/internal/rat"
)

// degradedJSON is a second distinct task set for batch tests.
const degradedJSON = `[
  {"name":"tau1","crit":"HI","period":[10,10],"deadline":[6,9],"wcet":[2,4]},
  {"name":"tau2","crit":"LO","period":[10,20],"deadline":[10,20],"wcet":[2,2]}
]`

// batchBody wraps item bodies into a /v1/batch request.
func batchBody(items ...string) string {
	return fmt.Sprintf(`{"items": [%s]}`, strings.Join(items, ", "))
}

// batchItemDoc mirrors one element of the response's "items" array.
// Result stays a RawMessage so byte-identity with /v1/analyze bodies can
// be asserted (json.Unmarshal preserves the raw value bytes).
type batchItemDoc struct {
	Index  int             `json:"index"`
	Cache  string          `json:"cache"`
	Status int             `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

type batchDoc struct {
	Count  int            `json:"count"`
	Errors int            `json:"errors"`
	Items  []batchItemDoc `json:"items"`
}

func decodeBatch(t *testing.T, body []byte) batchDoc {
	t.Helper()
	var doc batchDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, body)
	}
	if len(doc.Items) != doc.Count {
		t.Fatalf("count %d but %d items", doc.Count, len(doc.Items))
	}
	return doc
}

func TestBatchItemsMatchIndividualAnalyzeBytes(t *testing.T) {
	ts := newTestServer(t, Config{})
	items := []string{
		tableIJSON,
		fmt.Sprintf(`{"tasks": %s, "speed": "3/2", "minx": true}`, tableIJSON),
		degradedJSON,
	}
	resp, body := post(t, ts.URL+"/v1/batch", batchBody(items...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	doc := decodeBatch(t, body)
	if doc.Errors != 0 {
		t.Fatalf("errors = %d: %s", doc.Errors, body)
	}
	for i, item := range doc.Items {
		if item.Index != i {
			t.Errorf("item %d reports index %d", i, item.Index)
		}
		iResp, iBody := post(t, ts.URL+"/v1/analyze", items[i])
		if iResp.StatusCode != http.StatusOK {
			t.Fatalf("individual analyze %d: status %d: %s", i, iResp.StatusCode, iBody)
		}
		if !bytes.Equal(item.Result, bytes.TrimRight(iBody, "\n")) {
			t.Errorf("item %d result differs from individual /v1/analyze body:\n%s\n---\n%s",
				i, item.Result, iBody)
		}
	}
}

func TestBatchSharesCacheWithAnalyze(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Individual call populates; batch must hit.
	post(t, ts.URL+"/v1/analyze", tableIJSON)
	_, body := post(t, ts.URL+"/v1/batch", batchBody(tableIJSON, degradedJSON))
	doc := decodeBatch(t, body)
	if doc.Items[0].Cache != "hit" {
		t.Errorf("item 0 cache = %q, want hit (analyze populated it)", doc.Items[0].Cache)
	}
	if doc.Items[1].Cache != "miss" {
		t.Errorf("item 1 cache = %q, want miss", doc.Items[1].Cache)
	}

	// Batch populates; individual call must hit.
	resp, _ := post(t, ts.URL+"/v1/analyze", degradedJSON)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("analyze after batch X-Cache = %q, want hit", got)
	}

	// Duplicate items within one batch: at most one computes.
	_, body = post(t, ts.URL+"/v1/batch", batchBody(tableIJSON, tableIJSON))
	doc = decodeBatch(t, body)
	for i, item := range doc.Items {
		if item.Cache != "hit" {
			t.Errorf("duplicate item %d cache = %q, want hit", i, item.Cache)
		}
	}
}

func TestBatchReportsPerItemErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	bad := `{"tasks": [], "x": 0.5, "minx": true}`
	resp, body := post(t, ts.URL+"/v1/batch", batchBody(tableIJSON, `[]`, bad))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	doc := decodeBatch(t, body)
	if doc.Errors != 2 {
		t.Fatalf("errors = %d, want 2: %s", doc.Errors, body)
	}
	if doc.Items[0].Error != "" || len(doc.Items[0].Result) == 0 {
		t.Errorf("item 0 should have succeeded: %+v", doc.Items[0])
	}
	for _, i := range []int{1, 2} {
		if doc.Items[i].Error == "" || doc.Items[i].Status != http.StatusBadRequest {
			t.Errorf("item %d: error %q status %d, want a 400 error", i, doc.Items[i].Error, doc.Items[i].Status)
		}
		if len(doc.Items[i].Result) != 0 {
			t.Errorf("item %d: unexpected result alongside error", i)
		}
	}
}

func TestBatchRejectsMalformedAndOversized(t *testing.T) {
	ts := newTestServer(t, Config{MaxBatchItems: 2})
	for _, tc := range []struct{ name, body string }{
		{"empty body", ""},
		{"no items", `{"items": []}`},
		{"missing items", `{}`},
		{"unknown field", `{"items": [[]], "speed": 2}`},
		{"over cap", batchBody(tableIJSON, tableIJSON, tableIJSON)},
		{"trailing data", `{"items": [[]]} extra`},
	} {
		resp, body := post(t, ts.URL+"/v1/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
	}
}

func TestBatchMetricsCounters(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Populate first so the duplicate item is a deterministic cache hit
	// (two concurrent misses on the same key may both compute).
	post(t, ts.URL+"/v1/analyze", tableIJSON)
	post(t, ts.URL+"/v1/batch", batchBody(tableIJSON, degradedJSON, `[]`))
	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"mcs_batch_items_total 3",
		"mcs_batch_item_cache_hits_total 1",
		"mcs_batch_item_errors_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBatchMatchesCoreAnalysis ties the serving tier to the library:
// each batch item's result bytes must equal a direct core.Analyze report.
// internal/core's TestAnalyzeMatchesReferenceWalks pins those bytes to
// the scalar, event-by-event reference walks, so together they are the
// end-to-end differential through HTTP — any columnar-lowering or
// skip-certificate divergence shows up as a byte mismatch.
func TestBatchMatchesCoreAnalysis(t *testing.T) {
	ts := newTestServer(t, Config{})
	items := []string{tableIJSON, degradedJSON}
	_, body := post(t, ts.URL+"/v1/batch", batchBody(items...))
	doc := decodeBatch(t, body)
	if doc.Errors != 0 {
		t.Fatalf("errors = %d: %s", doc.Errors, body)
	}
	for i, item := range doc.Items {
		set, err := parseTasks(json.RawMessage(items[i]))
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		report, err := core.Analyze(set, rat.Two)
		if err != nil {
			t.Fatalf("item %d: analyze: %v", i, err)
		}
		want, err := report.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(item.Result, bytes.TrimRight(want, "\n")) {
			t.Errorf("item %d served bytes != core analysis:\n%s\n---\n%s",
				i, item.Result, want)
		}
	}
}

// TestBatchSurvivesResetOverflow replays a request that once crashed the
// process: a speed a hair above U_HI made the Corollary-5 crossing
// overflow int64, and the panic escaped the batch item goroutine. The
// item must now get a result, and the server must keep answering.
func TestBatchSurvivesResetOverflow(t *testing.T) {
	ts := newTestServer(t, Config{})
	item := `{"tasks": [
  {"name":"a","crit":"HI","period":[997,997],"deadline":[500,997],"wcet":[100,330]},
  {"name":"b","crit":"HI","period":[1009,1009],"deadline":[500,1009],"wcet":[100,336]},
  {"name":"c","crit":"LO","period":[1013,1013],"deadline":[1013,1013],"wcet":[10,10]}
], "speed": "3533010524288/5242880000000"}`
	resp, body := post(t, ts.URL+"/v1/batch", batchBody(item))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	doc := decodeBatch(t, body)
	if doc.Errors != 0 || len(doc.Items[0].Result) == 0 {
		t.Fatalf("item got no result: %s", body)
	}
	if resp, body := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after the batch: %s", resp.StatusCode, body)
	}
}
