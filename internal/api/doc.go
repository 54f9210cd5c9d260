// Package api defines the wire format of the trustgridd HTTP API —
// request/response bodies, the streamed event shape with its line codec
// (Event.AppendJSON, ParseEvent) and its binary frame (Event.AppendFrame,
// ReadEventFrame), the submit body's decoder (DecodeSubmitRequest),
// tenant documents and the arrival-trace record
// with its line codec (TraceRecord.AppendJSON and ScanJSON,
// ParseTraceRecord: the trace file's line and the WAL arrival payload;
// the codecs and the strictjson scalars they share in DESIGN.md §9.7) —
// shared by the server (internal/server), the typed client
// (internal/client) and the command-line tools. One
// definition on both sides of the wire is what makes the client the
// API's contract test: a field the server renames breaks the client's
// tests, not a downstream user.
//
// The package is deliberately dependency-light: encoding/json and the
// internal/strictjson scalars plus the repo's own model types
// (metrics.Summary, sched.SiteStatus). Versioning follows the URL space,
// not the types: /v1 and /v2 share these shapes, with v2-only fields
// marked omitempty so v1 responses are unchanged.
// See DESIGN.md §9 for the v2 resource model.
package api
