// Package client is the typed Go client for the trustgridd HTTP API
// (v2; an empty tenant name submits to the default tenant). It is the
// only sanctioned way the repo's own tools talk to the daemon —
// loadgen, the daemon smoke test and the trace-replay parity tests all
// go through it, which makes the client the API's contract test: a
// server-side wire change that breaks a downstream user breaks this
// repo's CI first.
//
// Construction is chainable and cannot fail:
//
//	c := client.New("http://127.0.0.1:8421")
//	ids, err := c.Submit(ctx, "acme", []api.JobSpec{{Workload: 3e5, SD: 0.7}})
//
// Non-2xx responses surface as *client.APIError carrying the decoded
// server message, the status code and any Retry-After hint; match
// classes with errors.Is against ErrBadRequest, ErrNotFound,
// ErrConflict, ErrOverQuota and ErrUnavailable.
//
// Events returns a cursor-resuming event iterator, which reads the
// daemon's binary event frames (or NDJSON, from a daemon that serves
// only that): in follow mode a
// dropped connection is re-dialed transparently from the last seen
// sequence number, so a consumer observes every retained event exactly
// once even across daemon restarts of the HTTP layer; cancellation of
// the supplied context ends the stream with the context's error.
package client
