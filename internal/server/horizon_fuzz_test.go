package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
)

// horizonModel is the reference FuzzRetentionHorizon holds the daemon
// to: a registry that keeps every accepted ID, its owner and whether it
// has completed, and the horizon computed from all of it.
type horizonModel struct {
	owner   map[int]string
	done    map[int]bool
	next    int // largest accepted ID
	horizon int
	retired bool
}

// retire recomputes the horizon as a committed submission does: the
// largest accepted ID such that every accepted ID at or below it is done.
func (m *horizonModel) retire() {
	ids := make([]int, 0, len(m.owner))
	for id := range m.owner {
		if !m.retired || id > m.horizon {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		if !m.done[id] {
			return
		}
		m.horizon, m.retired = id, true
	}
}

// live counts the accepted IDs above the horizon: the registry's size.
func (m *horizonModel) live() int {
	n := 0
	for id := range m.owner {
		if !m.retired || id > m.horizon {
			n++
		}
	}
	return n
}

// FuzzRetentionHorizon drives a manual daemon with two tenants through
// arbitrary interleavings of server-assigned submissions, explicit-ID
// submissions, depends_on entries (own, foreign, unused, retired) and
// clock advances that complete jobs, against horizonModel. The horizon
// and the registry size must be the model's after every step; a
// submission naming an ID above the horizon gets the model's answer; an
// explicit ID at or below it gets the horizon refusal, worded alike
// whether the ID was the tenant's own, the other tenant's or never
// used; a dependency at or below it is accepted and left out of the
// logged arrival. Every accepted job completes at the final drain.
func FuzzRetentionHorizon(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 7, 0, 1, 3, 9, 3, 0, 0, 1, 2, 3, 0, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 3, 0, 0, 1, 1, 2, 1, 0, 1, 0, 6, 4, 2, 3, 0, 0, 2, 3})
	f.Add([]byte{1, 0, 40, 1, 1, 20, 3, 0, 0, 1, 0, 30, 1, 1, 39, 0, 6, 0, 3, 0, 0, 1, 2, 19})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		srv, err := New(Config{
			Sites: []*grid.Site{
				{ID: 0, Speed: 10, Nodes: 1, SecurityLevel: 0.95},
				{ID: 1, Speed: 5, Nodes: 1, SecurityLevel: 0.9},
			},
			Algo: "minmin", Mode: "secure", Seed: 3, Setup: experiments.TestSetup(),
			BatchInterval: 10, Manual: true,
			Tenants: []api.TenantSpec{{ID: "acme"}, {ID: "rival"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Stop(false)
		h := srv.Handler()
		call := func(method, path string, body any) (int, []byte) {
			b, _ := json.Marshal(body)
			rw := httptest.NewRecorder()
			h.ServeHTTP(rw, httptest.NewRequest(method, path, bytes.NewReader(b)))
			return rw.Code, rw.Body.Bytes()
		}
		m := horizonModel{owner: map[int]string{}, done: map[int]bool{}}
		var cursor int64
		readCompletions := func() {
			evs, next := readSince(srv.log, cursor)
			cursor = next
			for _, ev := range evs {
				if ev.Kind == "completed" {
					m.done[ev.Job] = true
				}
			}
		}
		tenants := [2]string{"acme", "rival"}
		for len(ops) >= 3 {
			kind, b1, b2 := ops[0]%4, ops[1], ops[2]
			ops = ops[3:]
			if kind >= 2 {
				dt := float64(b1%8+1) * 5
				if kind == 3 {
					dt = 200
				}
				if code, body := call(http.MethodPost, "/v2/advance", api.AdvanceRequest{DT: dt}); code != http.StatusOK {
					t.Fatalf("advance %v: %d %s", dt, code, body)
				}
				readCompletions()
				continue
			}
			tenant := tenants[b1&1]
			spec := api.JobSpec{Workload: float64(10 + b2%4*10), SD: 0.5}
			explicit := kind == 1
			if explicit {
				id := int(b2%48) + 1
				spec.ID = &id
			}
			dep := 0
			if b1&2 != 0 {
				dep = int(b1>>2)%48 + 1
				spec.DependsOn = []int{dep}
			}
			if explicit && dep == *spec.ID {
				continue // the handler's self-dependency 400, not the registry's business
			}
			// The model's answer, in the daemon's order: dependencies, then
			// the explicit ID.
			var want string
			keepDep := false
			switch {
			case dep == 0:
			case m.retired && dep <= m.horizon:
			case m.owner[dep] == tenant:
				keepDep = true
			default:
				want = fmt.Sprintf("job 0: depends on unknown job %d (dependencies must name an accepted job or an earlier explicit id in this request)", dep)
			}
			id := m.next + 1
			if want == "" && explicit {
				id = *spec.ID
				switch _, dup := m.owner[id]; {
				case m.retired && id <= m.horizon:
					want = fmt.Sprintf("job 0: id %d is at or below the retention horizon %d", id, m.horizon)
				case dup:
					want = fmt.Sprintf("job 0: duplicate job id %d", id)
				}
			}
			code, body := call(http.MethodPost, "/v2/tenants/"+tenant+"/jobs", api.SubmitRequest{Jobs: []api.JobSpec{spec}})
			if want != "" {
				var e api.ErrorBody
				if code != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error != want {
					t.Fatalf("%s submits %+v (dep %d): %d %s, want 400 %q", tenant, spec, dep, code, body, want)
				}
			} else {
				var ack api.SubmitResponse
				if code != http.StatusOK || json.Unmarshal(body, &ack) != nil || len(ack.IDs) != 1 || ack.IDs[0] != id {
					t.Fatalf("%s submits %+v (dep %d): %d %s, want job %d accepted", tenant, spec, dep, code, body, id)
				}
				m.owner[id] = tenant
				m.next = max(m.next, id)
				m.retire()
				// The job waits for the clock as a pending arrival: what the
				// engine was handed is what the WAL would log.
				var logged []int
				found := false
				if err := srv.do(context.Background(), func() {
					for _, j := range srv.online.NeverPlaced() {
						if j.ID == id {
							logged, found = j.DependsOn, true
						}
					}
				}); err != nil || !found {
					t.Fatalf("job %d is not pending in the engine (%v)", id, err)
				}
				if got := len(logged) > 0; got != keepDep {
					t.Fatalf("job %d handed over with depends_on %v; want dependency %d kept %v (horizon %d)", id, logged, dep, keepDep, m.horizon)
				}
			}
			var rep api.MetricsReport
			if _, body := call(http.MethodGet, "/v2/metrics", nil); json.Unmarshal(body, &rep) != nil {
				t.Fatalf("metrics: %s", body)
			}
			if (rep.RetentionHorizon != nil) != m.retired || m.retired && *rep.RetentionHorizon != m.horizon || rep.RegistryIDs != m.live() {
				t.Fatalf("metrics say horizon %v and %d registry IDs; model %d (%v) and %d", rep.RetentionHorizon, rep.RegistryIDs, m.horizon, m.retired, m.live())
			}
		}
		if code, body := call(http.MethodPost, "/v2/drain", nil); code != http.StatusOK {
			t.Fatalf("drain: %d %s", code, body)
		}
	})
}
