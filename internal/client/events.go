package client

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"

	"trustgrid/internal/api"
)

// EventStream iterates the daemon's NDJSON event log.
//
// Cursor resume: the stream remembers the last delivered sequence
// number; in follow mode a dropped or corrupted connection is re-dialed
// transparently with since=cursor+1, so consumers see every retained
// event exactly once, in order, across transport failures. A clean
// server-side close (daemon drained and stopped) ends the stream with
// io.EOF once a resume attempt yields nothing new. Without follow, the
// stream is one request: events until the page (or log) is exhausted,
// then io.EOF.
//
// Cancellation: when the context passed to Client.Events ends, Next
// returns the context's error (possibly after one final buffered
// event). Close releases the connection early; Next then returns
// io.EOF.
type EventStream struct {
	c    *Client
	ctx  context.Context
	opts EventsOptions

	cursor   int64 // next sequence number to ask for
	body     io.ReadCloser
	sc       *bufio.Scanner
	started  bool
	progress bool // events delivered since the last (re)dial
	err      error
}

func (s *EventStream) dial() error {
	opts := s.opts
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, s.c.base+opts.query(s.cursor), nil)
	if err != nil {
		return err
	}
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		err := errorFromResponse(resp)
		_ = resp.Body.Close()
		return err
	}
	s.body = resp.Body
	s.sc = bufio.NewScanner(resp.Body)
	s.sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	s.started, s.progress = true, false
	return nil
}

func (s *EventStream) closeBody() {
	if s.body != nil {
		_ = s.body.Close()
		s.body, s.sc = nil, nil
	}
}

// Next returns the next event. It blocks in follow mode until an event
// arrives, the context ends, or the daemon shuts down.
func (s *EventStream) Next() (api.Event, error) {
	var zero api.Event
	for {
		if s.err != nil {
			return zero, s.err
		}
		if err := s.ctx.Err(); err != nil {
			s.closeBody()
			s.err = err
			return zero, err
		}
		if s.body == nil {
			if err := s.dial(); err != nil {
				s.closeBody()
				// Transport refusals are not resumable: the caller
				// decides whether to rebuild the stream.
				s.err = err
				return zero, err
			}
		}
		if s.sc.Scan() {
			line := s.sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var ev api.Event
			if err := api.ParseEvent(line, &ev); err != nil {
				// A torn line means the connection died mid-write. The
				// cursor still points after the last good event, so a
				// follow stream resumes without loss.
				s.closeBody()
				if s.opts.Follow {
					continue
				}
				s.err = fmt.Errorf("client: corrupt event line: %w", err)
				return zero, s.err
			}
			s.cursor = ev.Seq + 1
			s.progress = true
			return ev, nil
		}
		scanErr := s.sc.Err()
		progressed := s.progress
		s.closeBody()
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return zero, err
		}
		if !s.opts.Follow {
			if scanErr != nil {
				s.err = scanErr
			} else {
				s.err = io.EOF
			}
			return zero, s.err
		}
		// Follow mode: a transport error, or a clean close that had
		// delivered events, is worth a resume from the cursor. A clean
		// close right after a resume that yielded nothing means the
		// daemon is gone for good.
		if scanErr == nil && !progressed {
			s.err = io.EOF
			return zero, io.EOF
		}
	}
}

// Cursor returns the next sequence number the stream would request —
// persist it to resume a brand-new stream where this one stopped.
func (s *EventStream) Cursor() int64 { return s.cursor }

// Close releases the underlying connection. Subsequent Next calls
// return io.EOF (or the error that already ended the stream).
func (s *EventStream) Close() error {
	s.closeBody()
	if s.err == nil {
		s.err = io.EOF
	}
	return nil
}
