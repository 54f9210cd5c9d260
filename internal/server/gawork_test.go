package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/rng"
	"trustgrid/internal/server"
	"trustgrid/internal/stga"
)

// promValue reads one unlabelled or fully labelled sample from a
// /metrics.prom body.
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in:\n%s", series, text)
	return 0
}

// TestGAWorkExposition drives a manual-mode STGA daemon over k rounds
// and scrapes the GA work counters between rounds. Over n rounds of
// which f stopped at the span floor and p on a proof, f + p ≤ n, the
// generations lie in [(n−f−p)·min(Stall, Generations), n·Generations]:
// the stall rule may end a round before the cap, never before Stall
// flat ones, and only the floor or a proof ends one sooner. The fitness
// decodes lie in [(n−f−p)·pop + (f+p)·1, n·pop·(Generations+1)]: a
// stopped round scores at least its Min-Min seed, and exactly that one
// when the seed is proved optimal. Every STGA round makes one
// history lookup (hit or miss), and observes one last improving
// generation, which is no later than the generations it ran.
// The event stream is byte-identical to a twin daemon's that nobody
// scraped, and to one scraped from another goroutine while its rounds
// run (the counters are read concurrently with their writer).
func TestGAWorkExposition(t *testing.T) {
	const rounds = 6
	const (
		quiet   = iota
		between // scrape after each round
		racing  // scrape continuously from another goroutine
	)
	run := func(mode int) (events string, scrapes []string) {
		srv, ts, c := newManualV2Server(t, server.Config{Algo: "stga"})
		if mode == racing {
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(ts.URL + "/metrics.prom")
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
			defer func() { close(stop); <-done }()
		}
		ctx := context.Background()
		for r := 0; r < rounds; r++ {
			arr := float64(r) * 1000
			specs := make([]api.JobSpec, 5)
			for i := range specs {
				specs[i] = api.JobSpec{Arrival: &arr, Workload: float64(50000 + 7000*i + 900*r), SD: 0.5 + 0.08*float64(i)}
			}
			if _, err := c.Submit(ctx, "", specs); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Advance(ctx, api.AdvanceRequest{To: arr + 1000}); err != nil {
				t.Fatal(err)
			}
			if mode == between {
				scrapes = append(scrapes, scrapeProm(t, srv))
			}
		}
		return fetchEvents(t, ts.URL), scrapes
	}
	events, scrapes := run(between)
	if got, _ := run(quiet); got != events {
		t.Fatal("scraping /metrics.prom between rounds changed the event stream")
	}
	if got, _ := run(racing); got != events {
		t.Fatal("scraping /metrics.prom during rounds changed the event stream")
	}

	setup := experiments.TestSetup() // newManualV2Server's
	pop, gens := setup.Population, setup.Generations
	const seeds = 1 // a stopped round's fewest decodes: the current batch's Min-Min schedule
	minGens := min(setup.Stall, gens)
	if setup.Stall == 0 {
		minGens = gens
	}
	var prevEvals, prevBatches, prevGens, prevStops, prevProofs float64
	for r, text := range scrapes {
		batches := promValue(t, text, "trustgrid_batches_total")
		g := promValue(t, text, "trustgrid_ga_generations_total")
		e := promValue(t, text, "trustgrid_ga_evaluations_total")
		hits := promValue(t, text, `trustgrid_stga_history_lookups_total{result="hit"}`)
		misses := promValue(t, text, `trustgrid_stga_history_lookups_total{result="miss"}`)
		stops := promValue(t, text, "trustgrid_stga_floor_stops_total")
		proofs := promValue(t, text, "trustgrid_stga_proved_stops_total")
		n, f := batches-prevBatches, (stops-prevStops)+(proofs-prevProofs)
		if n < 1 {
			t.Fatalf("round %d: no scheduling round ran", r)
		}
		if stops < prevStops || proofs < prevProofs || f > n {
			t.Fatalf("round %d: %v floor stops and %v proved stops over %v rounds", r, stops-prevStops, proofs-prevProofs, n)
		}
		if dg := g - prevGens; dg < (n-f)*float64(minGens) || dg > n*float64(gens) {
			t.Fatalf("round %d: %v generations over %v rounds (%v floor or proved stops), want within [%v, %v]",
				r, dg, n, f, (n-f)*float64(minGens), n*float64(gens))
		}
		if c := promValue(t, text, "trustgrid_stga_last_improvement_generation_count"); c != batches {
			t.Fatalf("round %d: %v last-improvement observations over %v rounds", r, c, batches)
		}
		if sum := promValue(t, text, "trustgrid_stga_last_improvement_generation_sum"); sum > g {
			t.Fatalf("round %d: last improvements sum to %v, past the %v generations run", r, sum, g)
		}
		if de := e - prevEvals; de < (n-f)*float64(pop)+f*seeds || de > n*float64(pop*(gens+1)) {
			t.Fatalf("round %d: %v evaluations over %v rounds (%v floor or proved stops), want within [%v, %v]",
				r, de, n, f, (n-f)*float64(pop)+f*seeds, n*float64(pop*(gens+1)))
		}
		if hits+misses != batches {
			t.Fatalf("round %d: %v hits + %v misses != %v STGA rounds", r, hits, misses, batches)
		}
		prevEvals, prevBatches, prevGens, prevStops, prevProofs = e, batches, g, stops, proofs
	}
	last := scrapes[len(scrapes)-1]
	if promValue(t, last, "trustgrid_stga_floor_stops_total") == 0 {
		t.Fatalf("no round stopped at its span floor, so the floor bounds went unexercised:\n%s", last)
	}
	if promValue(t, last, "trustgrid_stga_proved_stops_total") == 0 {
		t.Fatalf("no round stopped on a proof, so the proof bounds went unexercised:\n%s", last)
	}
	if promValue(t, last, `trustgrid_stga_history_lookups_total{result="hit"}`) == 0 {
		t.Fatalf("recurring rounds never hit the history table:\n%s", last)
	}
	for _, want := range []string{
		fmt.Sprintf("trustgrid_rng_mask_kernel{kernel=%q} 1\n", rng.MaskKernel()),
		fmt.Sprintf("trustgrid_stga_decode_kernel{kernel=%q} 1\n", stga.DecodeKernel()),
	} {
		if !strings.Contains(last, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}
