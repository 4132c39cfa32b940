package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// POST /v1/batch — analyze many task sets in one request.
//
// The request is {"items": [<analyze body>, ...]}: every element accepts
// exactly the /v1/analyze formats (an options envelope or a bare task
// array). Items fan out over the server's admission pool concurrently —
// a batch of N sets costs one round trip instead of N — and each item
// runs through the same cache key derivation as /v1/analyze, so batch
// and individual calls populate and hit the same cache entries, and an
// item's "result" bytes are byte-identical to the body an individual
// /v1/analyze call returns for it.
//
// Unlike single requests, items queue for pool slots until the request
// deadline instead of being shed with 429 after the admission wait: a
// saturated pool stretches a batch out rather than dropping work the
// caller would immediately retry. Per-item failures (bad task set,
// infeasible transform, deadline) are reported in place with their HTTP
// status equivalent; one bad item never fails the others.

type batchRequest struct {
	Items []json.RawMessage `json:"items"`
}

// batchItem is one item's outcome, exactly one of result/err set.
type batchItem struct {
	body []byte
	hit  bool
	err  error
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		writeError(w, http.StatusBadRequest, "empty request body")
		return
	}
	var req batchRequest
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad batch envelope: %v", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after batch envelope")
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d items exceeds the service cap of %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}

	items := make([]batchItem, len(req.Items))
	var wg sync.WaitGroup
	for i, raw := range req.Items {
		var itemReq analyzeRequest
		if err := decodeBody(raw, &itemReq); err != nil {
			items[i].err = err
			continue
		}
		key, fn, err := s.analyzeJob(itemReq)
		if err != nil {
			items[i].err = err
			continue
		}
		wg.Add(1)
		go func(out *batchItem) {
			defer wg.Done()
			out.body, out.hit, out.err = s.compute(r.Context(), 0, key, fn)
		}(&items[i])
	}
	wg.Wait()

	hits, errs := 0, 0
	for i := range items {
		if items[i].err != nil {
			errs++
		} else if items[i].hit {
			hits++
		}
	}
	s.metrics.recordBatch(len(items), hits, errs)

	// The response is assembled by hand: encoding/json would re-compact
	// the embedded analyze reports, breaking the guarantee that an item's
	// "result" bytes equal the individual /v1/analyze body.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"count\": %d,\n  \"errors\": %d,\n  \"items\": [\n", len(items), errs)
	for i := range items {
		buf.WriteString("    ")
		if err := items[i].err; err != nil {
			msg, _ := json.Marshal(err.Error())
			fmt.Fprintf(&buf, "{\"index\": %d, \"status\": %d, \"error\": %s}", i, errorStatus(err), msg)
		} else {
			cache := "miss"
			if items[i].hit {
				cache = "hit"
			}
			fmt.Fprintf(&buf, "{\"index\": %d, \"cache\": %q, \"result\": ", i, cache)
			buf.Write(items[i].body)
			buf.WriteByte('}')
		}
		if i < len(items)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("  ]\n}\n")

	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
