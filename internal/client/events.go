package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sync"
	"time"

	"trustgrid/internal/api"
)

// EventStream iterates the daemon's event log. It asks for event
// frames (api.EventRecordsType) and reads whichever format the response
// names, so a daemon that serves only NDJSON streams as before.
//
// Cursor resume: the stream remembers the last delivered sequence
// number; in follow mode a dropped or corrupted connection is re-dialed
// transparently with since=cursor+1, so consumers see every retained
// event exactly once, in order, across transport failures. A body cut
// inside a line or frame is such a failure. A connection that failed
// after delivering an event is re-dialed at once; one that delivered
// nothing waits first, 10 ms doubling to 1 s until an event arrives, so
// a peer that cuts every connection is not dialed in a tight loop. A
// clean server-side close (daemon drained and stopped) ends the stream
// with io.EOF once a resume attempt yields nothing new, and an event
// that arrived whole but does not decode, right after a resume that
// yielded nothing, ends it with the decode error: the next resume would
// read the same bytes.
// Without follow, the stream is one request: events until the page (or
// log) is exhausted, then io.EOF.
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
	sc       *bufio.Scanner // an NDJSON body
	br       *bufio.Reader  // a body of event frames, from frameReaders
	dec      api.EventDecoder
	started  bool
	resumed  bool          // the open connection is a redial
	progress bool          // events delivered since the last (re)dial
	wait     time.Duration // the last redial backoff; 0 after an event
	err      error
}

// acceptEvents asks for event frames, and takes NDJSON from a daemon
// that has no frames.
const acceptEvents = api.EventRecordsType + ", application/x-ndjson;q=0.5"

func (s *EventStream) dial() error {
	opts := s.opts
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, s.c.base+opts.query(s.cursor), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", acceptEvents)
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
	if typ, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); typ == api.EventRecordsType {
		s.br = frameReaders.Get().(*bufio.Reader)
		s.br.Reset(resp.Body)
	} else {
		s.sc = bufio.NewScanner(resp.Body)
		s.sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		s.sc.Split(scanLines)
	}
	s.started, s.resumed, s.progress = true, s.started, false
	return nil
}

func (s *EventStream) closeBody() {
	if s.body != nil {
		_ = s.body.Close()
		if s.br != nil {
			s.br.Reset(nil)
			frameReaders.Put(s.br)
		}
		s.body, s.sc, s.br = nil, nil, nil
	}
}

// frameReaders holds the 64 KiB readers of event-frame bodies across
// dials and streams: a replay round dials once per page.
var frameReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// errCorrupt marks a line or frame that arrived whole and does not
// decode: what sent it is not the daemon.
var errCorrupt = errors.New("client: corrupt event")

// scanLines is bufio.ScanLines without its last, unterminated line: a
// body that ends inside a line was cut, which is the transport's
// failure, not a corrupt event.
func scanLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, bytes.TrimSuffix(data[:i], []byte{'\r'}), nil
	}
	if atEOF && len(data) > 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return 0, nil, nil
}

// read decodes the next event from the open body. It returns io.EOF at
// a clean end of the body, an error wrapping errCorrupt for whole bytes
// that are not an event, and any other error, io.ErrUnexpectedEOF for a
// body cut inside an event included, as the transport's.
func (s *EventStream) read(ev *api.Event) error {
	if s.br != nil {
		err := s.dec.ReadFrame(s.br, ev)
		if errors.Is(err, api.ErrEventRecord) {
			return fmt.Errorf("%w: %w", errCorrupt, err)
		}
		return err
	}
	for s.sc.Scan() {
		if line := s.sc.Bytes(); len(line) > 0 {
			if err := api.ParseEvent(line, ev); err != nil {
				return fmt.Errorf("%w: %w", errCorrupt, err)
			}
			return nil
		}
	}
	switch err := s.sc.Err(); err {
	case nil:
		return io.EOF
	case bufio.ErrTooLong:
		return fmt.Errorf("%w: %w", errCorrupt, err)
	default:
		return err
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
		var ev api.Event
		err := s.read(&ev)
		if err == nil {
			s.cursor = ev.Seq + 1
			s.progress, s.wait = true, 0
			return ev, nil
		}
		progressed, resumed := s.progress, s.resumed
		s.closeBody()
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return zero, err
		}
		switch {
		case errors.Is(err, errCorrupt):
			// The cursor still points after the last good event, so a
			// follow stream resumes without loss — unless this very
			// resume delivered nothing, when the next would read the
			// same bytes again.
			if s.opts.Follow && (progressed || !resumed) {
				continue
			}
			s.err = err
		case !s.opts.Follow:
			s.err = err
		case err == io.EOF && !progressed:
			// Follow mode: a transport error, or a clean close that had
			// delivered events, is worth a resume from the cursor. A
			// clean close right after a resume that yielded nothing means
			// the daemon is gone for good.
			s.err = io.EOF
		default:
			if !progressed {
				// Back off before redialing a connection that delivered
				// nothing; the context ending cuts the wait short.
				s.wait = min(max(2*s.wait, 10*time.Millisecond), time.Second)
				t := time.NewTimer(s.wait)
				select {
				case <-t.C:
				case <-s.ctx.Done():
					t.Stop()
				}
			}
			continue
		}
		return zero, s.err
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
