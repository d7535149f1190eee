package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// rec is what the client saw of one request. Times are offsets from the
// start of the phase.
type rec struct {
	op   int // index into the phase's op list
	kind opKind
	// due is when an edit batch's place in the stream came up: when the
	// read it follows was handed out. sent−due is how late the writer ran.
	due    time.Duration
	sent   time.Duration
	first  time.Duration // first response byte (traced runs only)
	entry  time.Duration // first NDJSON entry line (streams)
	end    time.Duration
	status int
	bytes  int
	hits   int // cached flags set in the response
	err    error
	// wrong marks a 200 answer of the wrong shape: a wrong answer, where
	// err alone may also be a refusal or a transport failure.
	wrong bool
	// body keeps the raw response for the answer audit (sampled ops only).
	body []byte
	// server-side stage spans of batch and stream requests in traced runs.
	spans []serverSpan
}

// latency is what the request cost its caller, from send to last byte.
func (r *rec) latency() time.Duration { return r.end - r.sent }

func (r *rec) ok() bool { return r.err == nil }

// serverSpan is one stage of simserve's own ?trace=1 trace.
type serverSpan struct {
	Stage      string  `json:"stage"`
	DurationUs float64 `json:"duration_us"`
}

// wireOp is an op with its request pre-encoded before the clock starts.
type wireOp struct {
	op
	path string
	body []byte
}

func encodeOps(ops []op, traced bool) []wireOp {
	out := make([]wireOp, len(ops))
	for i, o := range ops {
		path, body := o.request()
		// simserve's ?trace=1 changes which engine path single and
		// non-streamed topk requests take, so only batch and stream
		// requests carry it; on those it only records.
		if traced && (o.kind == opBatch || o.kind == opStream) {
			path += "?trace=1"
		}
		out[i] = wireOp{op: o, path: path, body: body}
	}
	return out
}

// client issues benchmark requests against one server.
type client struct {
	hc     *http.Client
	base   string
	traced bool
	// keep reports whether op i's body is kept for the audit.
	keep func(i int) bool
}

// do sends one op and reads the whole response, checking its shape.
func (c *client) do(start time.Time, i int, o *wireOp) rec {
	r := rec{op: i, kind: o.kind}
	req, err := http.NewRequest(http.MethodPost, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { r.first = time.Since(start) },
		}))
	}
	r.sent = time.Since(start)
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		r.end = time.Since(start)
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	if o.kind == opStream && resp.StatusCode == http.StatusOK {
		r.err = c.readStream(start, resp.Body, &r)
	} else {
		var body []byte
		body, r.err = io.ReadAll(resp.Body)
		r.end = time.Since(start)
		r.bytes = len(body)
		if r.err == nil {
			r.err = checkBody(o.kind, resp.StatusCode, body, &r)
			r.wrong = r.err != nil && !errors.Is(r.err, errStatus)
		}
		if c.keep(i) {
			r.body = body
		}
	}
	return r
}

// readStream consumes an NDJSON top-k stream line by line: header,
// entries, trailer.
func (c *client) readStream(start time.Time, body io.Reader, r *rec) error {
	br := bufio.NewReader(body)
	var all bytes.Buffer
	lines := 0
	var trailer struct {
		Done  bool `json:"done"`
		Count int  `json:"count"`
		Trace *struct {
			Spans []serverSpan `json:"spans"`
		} `json:"trace"`
	}
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			all.Write(line)
			lines++
			if lines == 2 {
				r.entry = time.Since(start)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.end = time.Since(start)
			return err
		}
	}
	r.end = time.Since(start)
	r.bytes = all.Len()
	// From here on the whole body arrived: any failure is a wrong answer.
	r.wrong = true
	raw := bytes.Split(bytes.TrimSpace(all.Bytes()), []byte("\n"))
	if len(raw) != topK+2 {
		return fmt.Errorf("stream: %d lines, want %d", len(raw), topK+2)
	}
	var hdr struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(raw[0], &hdr); err != nil {
		return fmt.Errorf("stream header: %w", err)
	}
	if err := json.Unmarshal(raw[len(raw)-1], &trailer); err != nil {
		return fmt.Errorf("stream trailer: %w", err)
	}
	if !trailer.Done || trailer.Count != topK {
		return fmt.Errorf("stream trailer %s", raw[len(raw)-1])
	}
	if hdr.Cached {
		r.hits = 1
	}
	if trailer.Trace != nil {
		r.spans = trailer.Trace.Spans
	}
	if c.keep(r.op) {
		r.body = all.Bytes()
	}
	r.wrong = false
	return nil
}

// Wire shapes the client decodes.
type rankedWire struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

type topKWire struct {
	Cached   bool         `json:"cached"`
	MaxError float64      `json:"maxError"`
	Top      []rankedWire `json:"top"`
}

type singleWire struct {
	Scores []float64 `json:"scores"`
}

type batchWire struct {
	Results []struct {
		Cached bool         `json:"cached"`
		Top    []rankedWire `json:"top"`
		Error  string       `json:"error"`
	} `json:"results"`
	Trace *struct {
		Spans []serverSpan `json:"spans"`
	} `json:"trace"`
}

type editWire struct {
	Refreshed bool `json:"refreshed"`
}

// errStatus marks a non-200 answer; sheds are 429 and 503.
var errStatus = errors.New("non-200 status")

// checkBody validates a non-streamed response's shape and reads its
// cached flags. Dense score vectors are only shape-checked here (decoding
// 100k floats per request would load the client's CPUs, which the server
// shares); the audit decodes and compares a sample of them.
func checkBody(kind opKind, status int, body []byte, r *rec) error {
	if status != http.StatusOK {
		return fmt.Errorf("%w %d: %s", errStatus, status, bytes.TrimSpace(body))
	}
	switch kind {
	case opSingle:
		head := body[:min(len(body), 256)]
		if !bytes.Contains(head, []byte(`"scores":[`)) || !bytes.HasSuffix(body, []byte("]}\n")) {
			return errors.New("single: malformed body")
		}
		if bytes.Contains(head, []byte(`"cached":true`)) {
			r.hits = 1
		}
	case opTopK, opCert:
		var v topKWire
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Top) != topK {
			return fmt.Errorf("topk: %d entries", len(v.Top))
		}
		if kind == opTopK && v.MaxError != 0 || v.MaxError > certTolerance {
			return fmt.Errorf("topk: maxError %g", v.MaxError)
		}
		if v.Cached {
			r.hits = 1
		}
	case opBatch:
		var v batchWire
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Results) != batchSlots {
			return fmt.Errorf("batch: %d results", len(v.Results))
		}
		for _, s := range v.Results {
			if s.Error != "" || len(s.Top) != topK {
				return fmt.Errorf("batch slot: %q, %d entries", s.Error, len(s.Top))
			}
			if s.Cached {
				r.hits++
			}
		}
		if v.Trace != nil {
			r.spans = v.Trace.Spans
		}
	case opEdit:
		var v editWire
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if !v.Refreshed {
			return errors.New("edit batch did not materialise an epoch")
		}
	}
	return nil
}

// runClosed drives ops closed-loop from conns connections until the ops
// run out or the phase lasts d. Ops are handed out in stream order from a
// shared counter, so the ops sent are a prefix of the stream. When
// editEvery > 0, one writer beside the readers sends edit j as soon as
// read (j+1)·editEvery is handed out, so every epoch spans the same reads
// of the stream whatever the throughput. The writer shares the readers'
// connection pool; edit j is op len(ops)+j. The elapsed time ends with the
// last read.
func (c *client) runClosed(ops, edits []wireOp, conns, editEvery int, d time.Duration) ([]rec, time.Time, time.Duration) {
	var next atomic.Int64
	out := make([][]rec, conns+1)
	due := make(chan time.Duration, len(edits))
	start := time.Now()
	stop := start.Add(d)
	var readers sync.WaitGroup
	for w := 0; w < conns; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if editEvery > 0 && i > 0 && i%editEvery == 0 && i/editEvery <= len(edits) {
					due <- time.Since(start)
				}
				out[w] = append(out[w], c.do(start, i, &ops[i]))
			}
		}(w)
	}
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		j := 0
		for t := range due {
			r := c.do(start, len(ops)+j, &edits[j])
			r.due = t
			out[conns] = append(out[conns], r)
			j++
		}
	}()
	readers.Wait()
	elapsed := time.Since(start)
	close(due)
	<-writer
	return merge(out), start, elapsed
}

func merge(parts [][]rec) []rec {
	var all []rec
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}
