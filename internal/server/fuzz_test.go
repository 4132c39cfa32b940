package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzRoutes are the request decoders FuzzRequestDecode drives: index
// route%len(fuzzRoutes) picks one. The session-edit route first creates a
// session and substitutes its id for every "$ID" in the body.
var fuzzRoutes = []string{"/v1/analyze", "/v1/session", "/v1/session edit", "/v1/batch", "/v1/simulate", "/v1/fleet"}

// FuzzRequestDecode sends arbitrary bodies through the service handler
// for every endpoint that decodes a request. Whatever the body, the
// handler must answer without a panic escaping and without a 500: a
// malformed or hostile body is the client's error (4xx), never the
// server's. The caps are small so that a body the fuzzer grows into a
// long simulation or fleet is refused rather than run.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, tableIJSON},
		{0, `{"tasks":` + tableIJSON + `,"speed":3}`},
		{0, `{"tasks":` + tableIJSON + `,"x":0.5,"minx":true}`},
		{0, `{"tasks":` + tableIJSON + `,"terminate":true,"y":2}`},
		{0, `{"speed":2}`},
		{0, `{"tasks":` + tableIJSON + `,"speeed":2}`},
		{0, `{"tasks":` + tableIJSON + `,"x":7}`},
		{0, `[{"name":"x","crit":"LO","period":[10,10],"deadline":[10,10],"wcet":[2,2]},{"name":"x","crit":"LO","period":[10,10],"deadline":[10,10],"wcet":[2,2]}]`},
		{0, `{"bad json`},
		{1, `{"tasks":` + tableIJSON + `,"speed":3}`},
		{1, `{"action":"report","session":"s-999"}`},
		{1, `{"action":"close","session":"s-1"}`},
		{1, `{"action":"storm"}`},
		{2, `{"action":"edit","session":"$ID","edits":[{"op":"set","name":"tau1","params":[{"param":"cHI","value":5}]}]}`},
		{2, `{"action":"edit","session":"$ID","edits":[{"op":"set","name":"tau1","params":[{"param":"cHI","value":5}]},{"op":"set","name":"tau1","params":[{"param":"cHI","value":1}]}]}`},
		{2, `{"action":"edit","session":"$ID","edits":[{"op":"remove","name":"tau2"},{"op":"remove","name":"tau1"}]}`},
		{2, `{"action":"edit","session":"$ID","edits":[{"op":"add","task":{"name":"tau3","crit":"LO","period":[7,7],"deadline":[7,7],"wcet":[1,1]}}]}`},
		{2, `{"action":"edit","session":"$ID","edits":[]}`},
		{3, `{"items": [` + tableIJSON + `, {"tasks": ` + tableIJSON + `, "speed": "3/2", "minx": true}]}`},
		{3, `{"items": [{"tasks": [], "x": 0.5, "minx": true}]}`},
		{3, `{"items": []}`},
		{3, `{}`},
		{3, `{"items": [[]], "speed": 2}`},
		{3, `{"items": [[]]} extra`},
		{4, `{"tasks":` + tableIJSON + `,"workload":"sync","horizon":40,"collectJobs":true}`},
		{4, `{"tasks":` + tableIJSON + `,"workload":"random","seed":7,"horizon":40}`},
		{4, `{"tasks":` + tableIJSON + `,"workload":"storm"}`},
		{4, `{"tasks":` + tableIJSON + `,"workload":"burst"}`},
		{4, `{"tasks":` + tableIJSON + `,"horizon":999999999}`},
		{4, `{"tasks":` + tableIJSON + `,"overrun":1.5}`},
		{4, `{"tasks":` + tableIJSON + `,"speed":"16777213/16777216","budget":3,"horizon":100000}`},
		{5, `{"tasks":` + tableIJSON + `,"runs":4,"seed":9,"horizon":200,"overrun":0.05}`},
		{5, `{"tasks":` + tableIJSON + `}`},
		{5, `{"tasks":` + tableIJSON + `,"runs":999999}`},
		{5, `{"tasks":` + tableIJSON + `,"runs":2,"overrun":-0.5}`},
		{5, `{"tasks":` + tableIJSON + `,"runs":2,"horizon":999999999}`},
		{5, `{"tasks":` + tableIJSON + `,"runs":2,"speed":"16777213/16777216","budget":3,"horizon":1000}`},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	h := New(Config{
		CacheEntries:  16,
		MaxBodyBytes:  1 << 14,
		MaxSimHorizon: 1000,
		MaxFleetRuns:  4,
		MaxBatchItems: 4,
		MaxSessions:   4,
	}).Handler()
	serve := func(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s %q: 500 %s", path, body, rec.Body.Bytes())
		}
		return rec
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		if path == "/v1/session edit" {
			path = "/v1/session"
			rec := serve(t, path, []byte(tableIJSON))
			var created struct{ Session string }
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.Session == "" {
				t.Fatalf("session create: %d %s", rec.Code, rec.Body.Bytes())
			}
			body = bytes.ReplaceAll(body, []byte("$ID"), []byte(created.Session))
		}
		serve(t, path, body)
	})
}
