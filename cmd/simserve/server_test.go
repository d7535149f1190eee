package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/simstar"
)

// testGraphJSON is a small labelled graph in the wire format of POST
// /v1/graph, mirroring the toy citation graph of the simstar tests.
const testGraphEdgeList = `survey	classicA
survey	classicB
followup1	survey
followup2	survey
review	followup1
review	followup2
preprint	followup1
preprint	classicA
classicB	classicA
`

func newTestServer(t *testing.T) (*server, http.Handler) {
	t.Helper()
	s := newServer()
	return s, s.handler()
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func loadTestGraph(t *testing.T, h http.Handler) {
	t.Helper()
	rec := doJSON(t, h, "POST", "/v1/graph", map[string]any{
		"edge_list": testGraphEdgeList,
		"options":   map[string]any{"c": 0.6, "k": 5},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("load graph: status %d: %s", rec.Code, rec.Body)
	}
}

func TestLoadGraphJSONAndStats(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)
	var gr graphResponse
	rec := doJSON(t, h, "POST", "/v1/graph", map[string]any{"edge_list": testGraphEdgeList})
	if err := json.Unmarshal(rec.Body.Bytes(), &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Nodes != 7 || gr.Edges != 9 {
		t.Fatalf("graph response %+v, want 7 nodes / 9 edges", gr)
	}
	var st statsResponse
	rec = doJSON(t, h, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.GraphLoaded || st.Engine.Nodes != 7 {
		t.Fatalf("stats %+v, want loaded 7-node engine", st)
	}
	if st.RequestCount < 2 {
		t.Fatalf("request count %d, want >= 2", st.RequestCount)
	}
}

func TestLoadGraphRawEdgeList(t *testing.T) {
	_, h := newTestServer(t)
	req := httptest.NewRequest("POST", "/v1/graph", strings.NewReader("0\t1\n1\t2\n"))
	req.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var gr graphResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Nodes != 3 || gr.Edges != 2 {
		t.Fatalf("graph response %+v, want 3 nodes / 2 edges", gr)
	}
}

func TestLoadGraphFromEdges(t *testing.T) {
	_, h := newTestServer(t)
	rec := doJSON(t, h, "POST", "/v1/graph", map[string]any{
		"edges": [][2]int{{0, 1}, {1, 2}, {3, 1}},
		"nodes": 5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var gr graphResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Nodes != 5 || gr.Edges != 3 {
		t.Fatalf("graph response %+v, want 5 nodes / 3 edges", gr)
	}
}

func TestLoadGraphBadRequests(t *testing.T) {
	_, h := newTestServer(t)
	for name, body := range map[string]any{
		"empty":     map[string]any{},
		"both":      map[string]any{"edge_list": "0\t1\n", "edges": [][2]int{{0, 1}}},
		"negative":  map[string]any{"edges": [][2]int{{-1, 0}}},
		"malformed": map[string]any{"edge_list": "only-one-field\n"},
		// A tiny request naming a huge node id must not allocate O(id)
		// engine state (or wrap past int32 in the builder).
		"huge-id-json": map[string]any{"edges": [][2]int{{0, 1 << 40}}},
		"huge-nodes":   map[string]any{"edges": [][2]int{{0, 1}}, "nodes": 1 << 40},
		"huge-id-text": map[string]any{"edge_list": "0\t1099511627776\n"},
	} {
		if rec := doJSON(t, h, "POST", "/v1/graph", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

func TestQueryBeforeGraphLoaded(t *testing.T) {
	_, h := newTestServer(t)
	for _, path := range []string{"/v1/query/single", "/v1/query/topk", "/v1/query/batch"} {
		rec := doJSON(t, h, "POST", path, map[string]any{"measure": "rwr", "node": 0})
		if rec.Code != http.StatusConflict {
			t.Fatalf("%s: status %d, want 409", path, rec.Code)
		}
	}
}

func TestMeasuresEndpoint(t *testing.T) {
	_, h := newTestServer(t)
	rec := doJSON(t, h, "GET", "/v1/measures", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Measures []string `json:"measures"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range resp.Measures {
		if m == simstar.MeasureGeometric {
			found = true
		}
	}
	if !found {
		t.Fatalf("measures %v missing %q", resp.Measures, simstar.MeasureGeometric)
	}
}

func TestSingleSourceRoundTrip(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	rec := doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "gsimrank*", "label": "followup1",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp singleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	eng := s.engine()
	q, _ := eng.Graph().NodeByLabel("followup1")
	want, err := eng.SingleSource(context.Background(), "gsimrank*", q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != q || resp.Label != "followup1" || len(resp.Scores) != len(want) {
		t.Fatalf("response %+v, want node %d with %d scores", resp, q, len(want))
	}
	for i := range want {
		if resp.Scores[i] != want[i] {
			t.Fatalf("scores[%d] = %g, want %g", i, resp.Scores[i], want[i])
		}
	}
	if resp.Cached {
		t.Fatal("first query must not be served from cache")
	}
	// The identical repeat is a cache hit.
	rec = doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "gsimrank*", "label": "followup1",
	})
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("repeat query must be served from cache")
	}
}

func TestTopKRoundTrip(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	rec := doJSON(t, h, "POST", "/v1/query/topk", map[string]any{
		"measure": "rwr", "label": "review", "k": 3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp topKResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Top) != 3 {
		t.Fatalf("got %d ranked entries, want 3", len(resp.Top))
	}
	eng := s.engine()
	q, _ := eng.Graph().NodeByLabel("review")
	want, err := eng.TopK(context.Background(), "rwr", q, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if resp.Top[i].Node != want[i].Node || resp.Top[i].Score != want[i].Score {
			t.Fatalf("top[%d] = %+v, want %+v", i, resp.Top[i], want[i])
		}
		if resp.Top[i].Label == "" {
			t.Fatalf("top[%d] missing label on a labelled graph", i)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)
	// scores mode, including one bad query that must fail alone.
	rec := doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
		"queries": []map[string]any{
			{"measure": "gsimrank*", "label": "survey"},
			{"measure": "no-such-measure", "node": 0},
			{"measure": "rwr", "node": 2},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Scores) == 0 {
		t.Fatalf("good query failed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Fatal("unknown measure must carry a per-query error")
	}
	if resp.Results[2].Error != "" || len(resp.Results[2].Scores) == 0 {
		t.Fatalf("good query failed: %+v", resp.Results[2])
	}
	// A query that fails resolution (unknown label) answers in its slot
	// without reaching the engine, and reports no made-up node id.
	rec = doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
		"queries": []map[string]any{
			{"measure": "rwr", "label": "no-such-paper"},
			{"measure": "rwr", "label": "survey"},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	resp = batchResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error == "" || resp.Results[0].Node != nil {
		t.Fatalf("unresolved query: %+v, want error without node", resp.Results[0])
	}
	if resp.Results[1].Error != "" || resp.Results[1].Node == nil {
		t.Fatalf("resolved query: %+v", resp.Results[1])
	}

	// topk mode.
	rec = doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
		"mode": "topk",
		"queries": []map[string]any{
			{"measure": "gsimrank*", "label": "followup1", "k": 2},
			{"measure": "gsimrank*", "label": "followup2", "k": 2},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("topk batch: status %d: %s", rec.Code, rec.Body)
	}
	resp = batchResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if r.Error != "" || len(r.Top) != 2 {
			t.Fatalf("topk result %d: %+v", i, r)
		}
		if len(r.Scores) != 0 {
			t.Fatalf("topk result %d carries raw scores", i)
		}
	}
	// Bad mode.
	rec = doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
		"mode":    "everything",
		"queries": []map[string]any{{"measure": "rwr", "node": 0}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d, want 400", rec.Code)
	}
}

// Loading a new graph swaps the engine: new node space, fresh result cache.
func TestGraphSwapInvalidatesCache(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	// Warm the cache.
	for i := 0; i < 2; i++ {
		if rec := doJSON(t, h, "POST", "/v1/query/single", map[string]any{
			"measure": "rwr", "node": 0,
		}); rec.Code != http.StatusOK {
			t.Fatalf("warm-up: status %d", rec.Code)
		}
	}
	if st := s.engine().CacheStats(); st.Hits != 1 || st.Size == 0 {
		t.Fatalf("warm cache: %+v", st)
	}
	old := s.engine()
	rec := doJSON(t, h, "POST", "/v1/graph", map[string]any{
		"edges": [][2]int{{0, 1}, {2, 1}}, "nodes": 3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("swap: status %d", rec.Code)
	}
	if s.engine() == old {
		t.Fatal("graph load did not swap the engine")
	}
	if st := s.engine().CacheStats(); st.Size != 0 || st.Hits != 0 {
		t.Fatalf("cache survived the graph swap: %+v", st)
	}
	// The same query now answers against the new 3-node graph, not a stale
	// 7-node cache entry.
	rec = doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "rwr", "node": 0,
	})
	var resp singleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached || len(resp.Scores) != 3 {
		t.Fatalf("post-swap query: cached=%v with %d scores, want fresh 3", resp.Cached, len(resp.Scores))
	}
}

// blockingMeasure parks in SingleSource until its context dies — the hook
// the cancellation tests use to hold a request mid-flight deterministically.
type blockingMeasure struct {
	entered chan struct{}
}

func (m blockingMeasure) Name() string { return "test-blocking" }

func (m blockingMeasure) AllPairs(ctx context.Context, g *simstar.Graph) (*simstar.Scores, error) {
	return nil, ctx.Err()
}

func (m blockingMeasure) SingleSource(ctx context.Context, g *simstar.Graph, q int) ([]float64, error) {
	m.entered <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

// A client abandoning a request mid-computation must cancel the kernel and
// answer 499 — the request-scoped context flows all the way down.
func TestMidRequestCancellation(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)
	entered := make(chan struct{}, 1)
	simstar.Register("test-blocking", func(opts ...simstar.Option) simstar.Measure {
		return blockingMeasure{entered: entered}
	})

	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/query/single", map[string]any{"measure": "test-blocking", "node": 0}},
		{"/v1/query/topk", map[string]any{"measure": "test-blocking", "node": 0, "k": 2}},
		{"/v1/query/batch", map[string]any{
			"queries": []map[string]any{{"measure": "test-blocking", "node": 0}},
		}},
	} {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest("POST", tc.path, bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			h.ServeHTTP(rec, req)
			close(done)
		}()
		// Wait until the kernel is provably inside the measure, then pull
		// the plug like a disconnecting client.
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: request never reached the measure", tc.path)
		}
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: handler did not return after cancellation", tc.path)
		}
		if tc.path == "/v1/query/batch" {
			// Batch requests fail wholesale only because the request died.
			if rec.Code != statusClientClosedRequest {
				t.Fatalf("%s: status %d, want %d: %s", tc.path, rec.Code, statusClientClosedRequest, rec.Body)
			}
			continue
		}
		if rec.Code != statusClientClosedRequest {
			t.Fatalf("%s: status %d, want %d: %s", tc.path, rec.Code, statusClientClosedRequest, rec.Body)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, h := newTestServer(t)
	rec := doJSON(t, h, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp map[string]bool
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp["ok"] || resp["graph_loaded"] {
		t.Fatalf("healthz %v, want ok without graph", resp)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, h := newTestServer(t)
	rec := doJSON(t, h, "GET", "/v1/query/single", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
}

// Ensure the wire scores match fmt expectations (guards against accidental
// NaN/Inf, which encoding/json rejects).
func TestScoresAreFinite(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)
	for _, m := range []string{"gsimrank*", "esimrank*", "rwr", "simrank", "prank"} {
		rec := doJSON(t, h, "POST", "/v1/query/single", map[string]any{"measure": m, "node": 1})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", m, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: invalid JSON response", m)
		}
	}
}

// An iteration count past the float64-resolution cap is refused with a 400
// whose message names the cap, on the single, topk and streamed topk
// endpoints alike, and no kernel runs for it.
func TestIterationCapAnswers400(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)
	ok := doJSON(t, h, "POST", "/v1/query/single", json.RawMessage(`{"measure":"gsimrank*","label":"survey","options":{"k":71}}`))
	if ok.Code != http.StatusOK {
		t.Fatalf("K at the cap: status %d: %s", ok.Code, ok.Body)
	}
	before := scrape(t, h)["simstar_kernel_seconds_count"]
	if before == 0 {
		t.Fatal("the served engine records no kernel runs")
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/query/single", `{"measure":"gsimrank*","label":"survey","options":{"k":2000}}`},
		{"/v1/query/topk", `{"measure":"rwr","label":"survey","k":3,"options":{"k":2000}}`},
		{"/v1/query/topk", `{"measure":"esimrank*","label":"survey","k":3,"stream":true,"options":{"k":2000}}`},
	} {
		rec := doJSON(t, h, "POST", c.path, json.RawMessage(c.body))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400: %s", c.path, c.body, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "cap of 71") {
			t.Fatalf("%s: error does not name the cap: %s", c.path, rec.Body)
		}
	}
	if after := scrape(t, h)["simstar_kernel_seconds_count"]; after != before {
		t.Fatalf("kernel runs went from %g to %g for refused queries", before, after)
	}
	// Co-citation never iterates, so no K is refused for it.
	if rec := doJSON(t, h, "POST", "/v1/query/single", json.RawMessage(`{"measure":"cocitation","label":"survey","options":{"k":2000}}`)); rec.Code != http.StatusOK {
		t.Fatalf("cocitation at k 2000: status %d: %s", rec.Code, rec.Body)
	}
	// A damping factor one ulp below 1 raises the cap to ~3.3e17; working it
	// out must not hold the request, which runs at the default K.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doJSON(t, h, "POST", "/v1/query/topk", json.RawMessage(`{"measure":"gsimrank*","label":"survey","k":3,"options":{"c":0.9999999999999999}}`))
	}()
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK {
			t.Fatalf("c just below 1: status %d: %s", rec.Code, rec.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("c just below 1: no answer within 10s")
	}
}
