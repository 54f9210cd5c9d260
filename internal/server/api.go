package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
)

// Wire types are defined once in the shared format package
// (internal/api) and re-exported here under their historical names so
// existing embedders keep compiling; see api's package comment.
type (
	// JobSpec is the submission wire format.
	JobSpec = api.JobSpec
	// WireEvent is the streamed form of a sched.EngineEvent.
	WireEvent = api.Event
	// MetricsReport is the /v1/metrics and /v2/metrics response.
	MetricsReport = api.MetricsReport
	// ShardMetrics is one engine shard's slice of the metrics report.
	ShardMetrics = api.ShardMetrics
)

type submitRequest = api.SubmitRequest

func wireFromEngine(ev sched.EngineEvent) WireEvent {
	w := WireEvent{Kind: ev.Kind.String(), Time: ev.Time, Job: ev.Job.ID, Site: ev.Site}
	switch ev.Kind {
	case sched.EventArrived, sched.EventPlaced, sched.EventFailed,
		sched.EventCompleted, sched.EventInterrupted, sched.EventReady:
		w.Tenant = ev.Job.Tenant
	}
	switch ev.Kind {
	case sched.EventArrived:
		w.Arrival = ev.Job.Arrival
		w.Workload = ev.Job.Workload
		w.Nodes = ev.Job.Nodes
		w.SD = ev.Job.SecurityDemand
		w.SafeOnly = ev.Job.SafeOnly
	case sched.EventPlaced:
		w.Start, w.Finish = ev.Start, ev.Finish
		w.Risky, w.FellBack = ev.Risky, ev.FellBack
	case sched.EventCompleted:
		w.Start, w.Finish = ev.Start, ev.Finish
		w.Level = ev.Level
	case sched.EventFailed:
		w.Level = ev.Level
	case sched.EventSiteDown, sched.EventSiteUp:
		w.Level = ev.Level
	case sched.EventSiteSpeed:
		w.Speed = ev.Speed
	}
	return w
}

// Handler returns the service's HTTP API. /v2 is the multi-tenant
// surface; the /v1 routes are a compatibility shim over the default
// tenant — same handlers, with submissions landing on
// api.DefaultTenant (DESIGN.md §9.3). /metrics.prom is unversioned, as
// Prometheus convention expects a stable scrape path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// v1 compatibility shim.
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, api.DefaultTenant)
	})
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/sites", s.handleSites)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/advance", s.handleAdvance)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	// v2: tenants are first-class.
	mux.HandleFunc("POST /v2/tenants", s.handleTenantCreate)
	mux.HandleFunc("GET /v2/tenants", s.handleTenantList)
	mux.HandleFunc("GET /v2/tenants/{tenant}", s.handleTenantGet)
	mux.HandleFunc("POST /v2/tenants/{tenant}/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubmit(w, r, r.PathValue("tenant"))
	})
	mux.HandleFunc("GET /v2/events", s.handleEvents)
	mux.HandleFunc("GET /v2/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v2/sites", s.handleSites)
	mux.HandleFunc("GET /v2/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v2/advance", s.handleAdvance)
	mux.HandleFunc("POST /v2/drain", s.handleDrain)
	// Prometheus text exposition of the existing counters.
	mux.HandleFunc("GET /metrics.prom", s.handleProm)
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(api.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	if s.stopped() {
		httpError(w, http.StatusServiceUnavailable, "%v", s.stoppedErr())
		return
	}
	var spec api.TenantSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Registry insert and engine weight install happen in ONE loop
	// command: the loop goroutine orders registration against arrival
	// ingestion (the determinism contract asks operators to register
	// tenants before traffic, §9.4), and atomicity means a request that
	// dies early leaves nothing behind — no half-registered tenant whose
	// weight never reached the fair-share former and whose re-register
	// retry would bounce off 409. s.do honors the context only until the
	// command is enqueued; once enqueued both effects happen.
	var regErr, walErr error
	if err := s.do(r.Context(), func() {
		if regErr = s.tenants.register(spec); regErr != nil {
			return
		}
		spec, _ = s.tenants.get(spec.ID) // normalized (defaulted weight)
		s.online.SetTenantWeight(spec.ID, spec.Weight)
		// Commit before acknowledging: a 201 must survive a crash.
		if walErr = s.walTenant(spec); walErr == nil {
			walErr = s.walCommit()
		}
	}); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if regErr != nil {
		httpError(w, http.StatusConflict, "%v", regErr)
		return
	}
	if walErr != nil {
		httpError(w, http.StatusServiceUnavailable, "wal: %v", walErr)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, spec)
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, api.TenantList{Tenants: s.tenants.list()})
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.tenants.get(r.PathValue("tenant"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown tenant %q", r.PathValue("tenant"))
		return
	}
	writeJSON(w, spec)
}

// retryAfterSeconds is the Retry-After hint on 429 responses: one batch
// tick is when queued jobs next get a chance to place and free quota.
func (s *Server) retryAfterSeconds() int {
	secs := int(s.cfg.Tick / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// maxSubmitBody bounds a submit request's body, which the handler reads
// whole before decoding: 32 MiB is some 200 000 jobs in the form the
// typed client sends, hundreds of times the largest request any client
// in this repository makes.
const maxSubmitBody = 32 << 20

// readBody reads r's body whole, failing with *http.MaxBytesError past
// maxSubmitBody bytes. The buffer grows with the bytes that arrive: a
// client that declares a large Content-Length and then stalls holds
// what it sent, not what it declared.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, tenantID string) {
	if s.stopped() {
		httpError(w, http.StatusServiceUnavailable, "%v", s.stoppedErr())
		return
	}
	spec, ok := s.tenants.get(tenantID)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown tenant %q", tenantID)
		return
	}
	body, err := readBody(w, r)
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body larger than %d bytes", mbe.Limit)
		return
	}
	var req submitRequest
	if err == nil {
		err = api.DecodeSubmitRequest(body, &req)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "no jobs in request")
		return
	}
	accepted := time.Now()
	// Validate the WHOLE request before claiming anything: a claimed ID
	// is burned forever in manual mode, so claiming before validation
	// would make a replayed trace unretryable after one malformed job
	// (the request fails, the IDs stay used, the retry hits duplicate-ID
	// rejections). What needs the registry — dependencies and explicit
	// IDs — is judged in the loop command below, before anything is
	// claimed; every other reason to 400 is ruled out here.
	jobs := make([]*grid.Job, 0, len(req.Jobs))
	for i, js := range req.Jobs {
		if !s.cfg.Manual && (js.ID != nil || js.Arrival != nil) {
			httpError(w, http.StatusBadRequest,
				"job %d: id/arrival are server-assigned in live mode (manual mode honors them)", i)
			return
		}
		j := &grid.Job{
			Workload: js.Workload, Nodes: js.Nodes,
			SecurityDemand: js.SD, Tenant: tenantID,
			SafeOnly: spec.SecureOnly,
			Deadline: js.Deadline,
		}
		if j.Nodes == 0 {
			j.Nodes = 1
		}
		if j.SecurityDemand == 0 {
			j.SecurityDemand = spec.SDDefault
		}
		if spec.MaxSD > 0 && j.SecurityDemand > spec.MaxSD {
			httpError(w, http.StatusBadRequest,
				"job %d: sd %v exceeds tenant %q max_sd %v", i, j.SecurityDemand, tenantID, spec.MaxSD)
			return
		}
		if js.Arrival != nil {
			j.Arrival = *js.Arrival
		}
		if len(js.DependsOn) > 0 {
			depSeen := make(map[int]bool, len(js.DependsOn))
			for _, d := range js.DependsOn {
				if js.ID != nil && d == *js.ID {
					httpError(w, http.StatusBadRequest, "job %d: depends on itself", i)
					return
				}
				if depSeen[d] {
					httpError(w, http.StatusBadRequest, "job %d: lists dependency %d twice", i, d)
					return
				}
				depSeen[d] = true
			}
			j.DependsOn = append([]int(nil), js.DependsOn...)
		}
		if err := j.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
		jobs = append(jobs, j)
	}
	// Admission control: all-or-nothing against the tenant's queue
	// quota, so a 429'd client retries the same batch.
	if ok, over := s.tenants.reserve(tenantID, len(jobs)); !ok {
		if over {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			httpError(w, http.StatusTooManyRequests,
				"tenant %q queue quota (%d) exceeded", tenantID, spec.MaxQueue)
			return
		}
		httpError(w, http.StatusNotFound, "unknown tenant %q", tenantID)
		return
	}
	// One loop command resolves dependencies, claims IDs, logs, ingests
	// and commits the batch, so request order is ingestion order, the
	// registry is exactly what the log implies, and no snapshot can fall
	// between a job's record and its ingestion (DESIGN.md §10.2).
	var ids []int
	injected := 0
	var refused, subErr error
	err = s.do(r.Context(), func() {
		if refused = s.resolveDeps(req.Jobs, jobs, tenantID); refused != nil {
			return
		}
		if ids, refused = s.claimIDs(req.Jobs, tenantID); refused != nil {
			return
		}
		for i, j := range jobs {
			j.ID = ids[i]
			// Pending entries exist before ingestion so a placement always
			// finds its submission — the latency sample and the quota
			// release both depend on it.
			s.lat.submitted(j.ID, tenantID, accepted)
		}
		for _, j := range jobs {
			// Log-then-apply, stamped with the current clock: replay
			// advances the engine here before re-submitting, so the job
			// re-enters the event queue in its original position (same
			// arrival clamp, same tie order at batch boundaries).
			if subErr = s.walArrival(j); subErr != nil {
				return
			}
			if subErr = s.online.Submit(j); subErr != nil {
				return
			}
			injected++
		}
		if subErr == nil {
			// Commit before acknowledging: an accepted batch must
			// survive a crash.
			subErr = s.walCommit()
		}
		// Counters advance on the loop goroutine, atomically with the
		// WAL records w.r.t. housekeeping — a snapshot covering these
		// records must already reflect them (replay skips covered
		// records, so an increment left to the handler would be lost).
		s.submitted.Add(int64(injected))
		s.tenants.addSubmitted(tenantID, injected)
		// The horizon moves here, at a committed submission, and nowhere
		// else: its state is the last record's, which replay reproduces,
		// so no answer rests on a horizon that recovery would lower.
		if subErr == nil {
			s.owners.retire()
		}
	})
	if refused != nil {
		s.tenants.release(tenantID, len(jobs))
		httpError(w, http.StatusBadRequest, "%v", refused)
		return
	}
	if subErr == nil {
		subErr = err
	}
	if subErr != nil {
		// The tail never reached the engine: unwind its accounting.
		for _, j := range jobs[injected:] {
			s.lat.forget(j.ID)
		}
		s.tenants.release(tenantID, len(jobs)-injected)
		httpError(w, http.StatusServiceUnavailable,
			"submit: %v (%d of %d jobs were already accepted)", subErr, injected, len(jobs))
		return
	}
	writeJSON(w, api.SubmitResponse{IDs: ids, Accepted: len(jobs)})
}

// handleEvents streams the event log as NDJSON, or as event frames
// (api.EventRecordsType) when the request's Accept header asks for
// them. Query parameters:
// since (cursor, default 0), max (page size: without follow the
// response stops after one page of max events — paginate with the last
// event's seq+1), follow (keep the connection open and stream new
// events), kinds (comma-separated filter, e.g. "placed,completed") and
// tenant (only that tenant's job events; site lifecycle events carry no
// tenant and are filtered out).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cursor := int64(0)
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad since %q", v)
			return
		}
		cursor = n
	}
	max := 0
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad max %q", v)
			return
		}
		max = n
	}
	follow := q.Get("follow") == "true" || q.Get("follow") == "1"
	var kinds map[string]bool
	if v := q.Get("kinds"); v != "" {
		kinds = make(map[string]bool)
		for _, k := range strings.Split(v, ",") {
			kinds[strings.TrimSpace(k)] = true
		}
	}
	tenant := q.Get("tenant")

	var match func(*WireEvent) bool
	if kinds != nil || tenant != "" {
		match = func(ev *WireEvent) bool {
			if kinds != nil && !kinds[ev.Kind] {
				return false
			}
			return tenant == "" || ev.Tenant == tenant
		}
	}

	appendEvent := appendEventLine
	if acceptsEventRecords(r.Header.Values("Accept")) {
		w.Header().Set("Content-Type", api.EventRecordsType)
		appendEvent = (*WireEvent).AppendFrame
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	// One buffer per request takes the events' lines or frames and goes
	// out in chunks, so a full-window page costs one encode per event
	// and a bounded amount of memory. It has room for a chunk and one
	// event past it, so it never grows. An event with a non-finite float
	// has no line, so neither format carries it.
	const chunk = 32 << 10
	buf := make([]byte, 0, chunk+api.MaxEventFrame)
	emit := func(evs []WireEvent) {
		for i := range evs {
			if !evs[i].Finite() {
				continue
			}
			buf = appendEvent(&evs[i], buf)
			if len(buf) >= chunk {
				_, _ = w.Write(buf)
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			_, _ = w.Write(buf)
			buf = buf[:0]
		}
	}
	for {
		// Grab the wait channel before reading so an append between the
		// read and the wait cannot be missed.
		ch := s.log.WaitCh()
		evs, next := s.log.ReadSince(cursor, max, match)
		advanced := next != cursor
		cursor = next
		emit(evs)
		if advanced {
			if !follow && max > 0 {
				// One page per request when a page size is set. A short
				// page means the log was exhausted at read time; events
				// appended since belong to the client's next poll.
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if !follow {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		case <-s.loopDone:
			// Final read so a drained shutdown's tail is not lost.
			evs, _ := s.log.ReadSince(cursor, 0, match)
			emit(evs)
			return
		}
	}
}

// acceptsEventRecords reports whether an Accept header prefers
// api.EventRecordsType to NDJSON: it names the frames at a quality
// above zero and at least NDJSON's, which NDJSON takes from the most
// specific of application/x-ndjson, application/* and */* that the
// header names. Anything else, a bare */* included, gets NDJSON.
func acceptsEventRecords(accept []string) bool {
	records, ndjson, ndjsonRank := 0.0, 0.0, -1
	for _, list := range accept {
		for _, rng := range strings.Split(list, ",") {
			typ, params, err := mime.ParseMediaType(rng)
			if err != nil {
				continue
			}
			q := 1.0
			if v, ok := params["q"]; ok {
				if q, err = strconv.ParseFloat(v, 64); err != nil {
					continue
				}
			}
			rank := -1
			switch typ {
			case api.EventRecordsType:
				records = max(records, q)
			case "application/x-ndjson":
				rank = 2
			case "application/*":
				rank = 1
			case "*/*":
				rank = 0
			}
			if rank >= 0 && (rank > ndjsonRank || rank == ndjsonRank && q > ndjson) {
				ndjson, ndjsonRank = q, rank
			}
		}
	}
	return records > 0 && records >= ndjson
}

// buildReport assembles the metrics report; tenant (optional) narrows
// the per-tenant section. Shared by the JSON and Prometheus endpoints.
func (s *Server) buildReport(r *http.Request, tenant string) (MetricsReport, error) {
	rep := MetricsReport{
		Algo:          s.algo,
		Mode:          s.cfg.Mode,
		Manual:        s.cfg.Manual,
		BatchInterval: s.cfg.BatchInterval,
		TickMS:        float64(s.cfg.Tick) / float64(time.Millisecond),
		RoundBudget:   s.cfg.RoundBudget,
		UptimeS:       time.Since(s.started).Seconds(),
		Submitted:     s.submitted.Load(),
		Arrived:       s.arrived.Load(),
		Placed:        s.placed.Load(),
		Failures:      s.failures.Load(),
		Interrupted:   s.interrupted.Load(),
		Completed:     s.completed.Load(),
		Rejected:      s.tenants.rejectedTotal(),
		Latency:       s.lat.summary(),
		Tenants:       s.tenants.metrics(s.lat, tenant),
	}
	if rep.UptimeS > 0 {
		rep.SubmitRate = float64(rep.Submitted) / rep.UptimeS
	}
	err := s.do(r.Context(), func() {
		rep.VirtualNow = s.online.Now()
		rep.InFlight = s.online.InFlight()
		rep.Batches = s.online.Batches()
		rep.LargestBatch = s.online.LargestBatch()
		if s.owners.retired {
			h := s.owners.horizon
			rep.RetentionHorizon = &h
		}
		rep.RegistryIDs = s.owners.ids.Len()
		for _, st := range s.online.SiteStatuses() {
			if st.Alive {
				rep.SitesAlive++
			}
		}
		if sum := s.online.Summary(); sum.Jobs > 0 {
			rep.Summary = &sum
		}
		if n := s.online.Shards(); n > 1 {
			rep.Shards = make([]api.ShardMetrics, n)
			for i := range rep.Shards {
				o := s.online.Shard(i)
				sm := api.ShardMetrics{
					Shard:        i,
					Sites:        len(s.online.Part(i)),
					VirtualNow:   o.Now(),
					Seen:         o.Seen(),
					InFlight:     o.InFlight(),
					Batches:      o.Batches(),
					LargestBatch: o.LargestBatch(),
					Latency:      s.lat.shardSummary(i),
				}
				if i < len(s.remotes) {
					sm.Addr = s.remotes[i].Addr()
					sm.Down = s.remotes[i].Down()
				}
				for _, st := range o.SiteStatuses() {
					if st.Alive {
						sm.SitesAlive++
					}
				}
				rep.Shards[i] = sm
			}
		}
	})
	return rep, err
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	if tenant != "" {
		if _, ok := s.tenants.get(tenant); !ok {
			httpError(w, http.StatusNotFound, "unknown tenant %q", tenant)
			return
		}
	}
	rep, err := s.buildReport(r, tenant)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, rep)
}

// handleSites reports the live dynamic-grid state: per-site liveness,
// effective speed, and the scheduler-visible trust estimate with the
// reputation evidence behind it. On static runs it reflects the
// immutable platform.
func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	var rep api.SitesReport
	err := s.do(r.Context(), func() {
		rep.Sites = s.online.SiteStatuses()
		rep.VirtualNow = s.online.Now()
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, rep)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.stopped() {
		httpError(w, http.StatusServiceUnavailable, "%v", s.stoppedErr())
		return
	}
	writeJSON(w, map[string]any{"ok": true})
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Manual {
		httpError(w, http.StatusConflict, "advance requires manual clock mode")
		return
	}
	var req api.AdvanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var now float64
	var advErr error
	badRequest := false
	err := s.do(r.Context(), func() {
		target := req.To
		if req.DT > 0 {
			target = s.online.Now() + req.DT
		}
		if target < s.online.Now() {
			advErr = fmt.Errorf("target %v before virtual now %v", target, s.online.Now())
			badRequest = true
			return
		}
		// Sharded durable daemons log the barrier before executing it (a
		// no-op otherwise): the window boundary is part of the recorded
		// input set, and the commit lands before the response does.
		if advErr = s.walBarrier(target, false); advErr != nil {
			return
		}
		advErr = s.online.AdvanceTo(target)
		if advErr == nil {
			advErr = s.walCommit()
		} else {
			// The engine aborted mid-advance: everything still queued is
			// permanently unplaceable — settle its latency entries and
			// queued-quota slots so the daemon's gauges don't leak.
			s.sweepUnplaced()
		}
		now = s.online.Now()
	})
	if err == nil {
		err = advErr
	}
	if err != nil {
		code := http.StatusInternalServerError
		if badRequest {
			code = http.StatusBadRequest
		}
		httpError(w, code, "advance: %v", err)
		return
	}
	writeJSON(w, api.AdvanceResponse{VirtualNow: now})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Manual {
		httpError(w, http.StatusConflict, "drain requires manual clock mode")
		return
	}
	var res *sched.Result
	var now float64
	var drainErr error
	err := s.do(r.Context(), func() {
		// Like advance: a sharded durable daemon records the drain barrier
		// ahead of the fan-out it triggers.
		if drainErr = s.walBarrier(0, true); drainErr != nil {
			return
		}
		res, drainErr = s.online.Drain()
		// Success or not, the drain is the end of the line for anything
		// never placed (unplaceable MustBeSafe work errors the drain and
		// stays queued forever): resolve those jobs' latency entries and
		// release their tenants' queued-quota slots.
		s.sweepUnplaced()
		if drainErr == nil {
			drainErr = s.walCommit()
		}
		now = s.online.Now()
	})
	if err == nil {
		err = drainErr
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	writeJSON(w, api.DrainResponse{
		VirtualNow: now,
		Summary:    res.Summary,
		Batches:    res.Batches,
	})
}
