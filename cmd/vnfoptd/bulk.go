package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
	"time"

	"vnfopt/internal/engine"
	"vnfopt/internal/shard"
)

// Bulk ingest: POST /v1/scenarios/{id}/rates:bulk carries an arbitrary
// number of rate updates on one connection, so a million-flow tenant is
// one request, not a million. The body is newline-delimited JSON and
// nothing else: Content-Type application/x-ndjson (or application/ndjson;
// any case, any parameters), each line either one update
// {"flow":7,"rate":1.5} or an array chunk [{...},{...}]. Any other
// content type is 400 — the {"updates":[...]} object belongs to
// POST .../rates, and a body this route cannot stream is refused rather
// than half-read.
//
// The body is *streamed*: lines are folded into batches of bulkBatchSize
// updates and each batch becomes one mailbox command while the next
// lines are still being parsed, so memory stays O(batch), never O(body),
// and a connection pushing faster than the shard's run loop drains is
// flow-controlled by the bounded mailbox instead of buffered.
//
// ?step=true closes the epoch after the final batch. Each batch is
// atomic (a bad update rejects its whole batch and aborts the stream)
// but the request is not: batches already executed stay ingested,
// exactly as if they had arrived as separate /rates calls. The response
// reports totals plus the per-batch accepted/coalesced/epoch accounting.

// bulkBatchSize is the number of updates folded into one mailbox
// command. Large enough to amortize the command handoff, small enough
// that a batch is parsed (and its memory retired) in microseconds.
const bulkBatchSize = 8192

// maxBulkLine bounds one NDJSON line; an array chunk with more than
// ~40k updates per line should be split across lines instead.
const maxBulkLine = 1 << 20

// bulkAccount accumulates per-batch results across mailbox commands.
// The mutex covers handler-vs-run-loop handoff; contention is one
// lock per batch, not per update.
type bulkAccount struct {
	mu      sync.Mutex
	batches []engine.IngestResult
	err     error // first failed batch, sticky
}

func (a *bulkAccount) record(res engine.IngestResult, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		if a.err == nil {
			a.err = err
		}
		return
	}
	a.batches = append(a.batches, res)
}

func (a *bulkAccount) failed() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

func (s *server) handleRatesBulk(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sc := s.get(id)
	if sc == nil {
		writeError(w, codeNotFound, "no scenario %q", id)
		return
	}
	step := false
	switch r.URL.Query().Get("step") {
	case "", "false", "0":
	case "true", "1":
		step = true
	default:
		writeError(w, codeBadRequest, "bad step %q (want true or false)", r.URL.Query().Get("step"))
		return
	}
	if ct := r.Header.Get("Content-Type"); !isNDJSON(ct) {
		writeError(w, codeBadRequest, `Content-Type %q: rates:bulk takes application/x-ndjson, one update or one array of updates per line; the {"updates":[...]} object goes to POST /v1/scenarios/{id}/rates`, ct)
		return
	}

	acc := &bulkAccount{}
	var wg sync.WaitGroup
	// submit hands one batch to the scenario's run loop. It owns batch
	// (the caller must not reuse the slice). SubmitCtx blocks while the
	// mailbox is full — the stream is flow-controlled to the drain rate
	// — and aborts when the client goes away.
	ctx := r.Context()
	var submitting time.Duration
	submit := func(batch []engine.RateUpdate) error {
		t := time.Now()
		defer func() { submitting += time.Since(t) }()
		if err := acc.failed(); err != nil {
			return err
		}
		wg.Add(1)
		err := sc.actor.SubmitCtx(ctx, func() {
			defer wg.Done()
			// A batch is only counted in the 200 response once it ran the
			// whole pipeline; a rejected batch never reaches the log.
			c := &ingestCmd{updates: batch}
			err := sc.run(c)
			acc.record(c.res, err)
		})
		if err != nil {
			wg.Done()
		}
		return err
	}

	start := time.Now()
	parseErr := streamNDJSON(r.Body, submit)
	// Decode time is the stream's wall time less what submit took: a full
	// mailbox blocks there, and that wait is not the decoder's.
	s.decodeBulk.Observe((time.Since(start) - submitting).Seconds())
	wg.Wait() // every submitted batch has executed; acc is stable

	switch {
	case errors.Is(parseErr, shard.ErrClosed):
		s.writeCommandErr(w, id, parseErr)
		return
	case ctx.Err() != nil:
		// The client is gone; nothing to answer.
		return
	case parseErr != nil && acc.failed() == nil:
		writeError(w, codeBadRequest, "bulk body: %v", parseErr)
		return
	case s.writeCommandErr(w, id, acc.failed()):
		return
	}

	resp := ingestResponse{Batches: acc.batches}
	for _, b := range acc.batches {
		resp.Accepted += b.Accepted
		resp.Coalesced += b.Coalesced
		resp.Epoch = b.Epoch
	}
	if resp.Epoch == 0 {
		resp.Epoch = sc.eng.Snapshot().Epoch + 1
	}
	if step {
		c := &stepCmd{}
		if s.writeCommandErr(w, id, sc.do(c)) {
			return
		}
		resp.Step = &c.res
	}
	writeJSON(w, http.StatusOK, resp)
}

func isNDJSON(contentType string) bool {
	// The media type comes back lower-cased and without its parameters,
	// and empty when the header does not parse.
	mt, _, _ := mime.ParseMediaType(contentType)
	return mt == "application/x-ndjson" || mt == "application/ndjson"
}

// streamNDJSON reads newline-delimited updates from body, flushing to
// submit every bulkBatchSize updates. submit errors (client gone,
// scenario deleted, earlier batch rejected) abort the stream.
func streamNDJSON(body io.Reader, submit func([]engine.RateUpdate) error) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxBulkLine)
	batch := make([]engine.RateUpdate, 0, bulkBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		out := batch
		batch = make([]engine.RateUpdate, 0, bulkBatchSize)
		return submit(out)
	}
	line := 0
	for sc.Scan() {
		line++
		// Only JSON white space blanks a line (bytes.TrimSpace also takes
		// \v, \f, U+0085, U+00A0); the scanner reads the rest as it came.
		raw := sc.Bytes()
		if len(bytes.TrimLeft(raw, " \t\r\n")) == 0 {
			continue
		}
		var err error
		if batch, err = scanRatesLine(raw, batch); err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		if len(batch) >= bulkBatchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("line %d exceeds %d bytes; split array chunks across lines", line+1, maxBulkLine)
		}
		return err
	}
	return flush()
}
