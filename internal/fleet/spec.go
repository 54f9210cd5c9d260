package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// Spec is the complete, serializable description of a sharded run:
// everything needed to build any shard's engine, bit for bit. The
// server builds one Spec per run and ships it to every worker in the
// attach frame; the worker derives its own shard's RunConfig from it
// with ShardConfig. Both sides building from the SAME spec through the
// SAME derivation is what makes fleet determinism hold by construction
// rather than by careful double-maintenance — the in-process server
// path calls this exact method too.
//
// Every field is JSON-clean (the fingerprint and the worker's
// persisted spec file depend on it). Weights must list every tenant
// registered before traffic; runtime registrations travel as weight
// operations instead.
type Spec struct {
	Sites         []*grid.Site          `json:"sites"`
	Training      []*grid.Job           `json:"training,omitempty"`
	Algo          string                `json:"algo"`
	Mode          string                `json:"mode"`
	BatchInterval float64               `json:"batch_interval"`
	Seed          uint64                `json:"seed"`
	Setup         experiments.Setup     `json:"setup"`
	Shards        int                   `json:"shards"`
	RoundBudget   int                   `json:"round_budget,omitempty"`
	Weights       map[string]float64    `json:"weights,omitempty"`
	Dynamics      *sched.DynamicsConfig `json:"dynamics,omitempty"`
}

// policy resolves the risk-mode string exactly like server.New.
func (sp *Spec) policy() (grid.Policy, error) {
	switch sp.Mode {
	case "secure":
		return sp.Setup.Policy(grid.Secure, 0), nil
	case "risky":
		return sp.Setup.Policy(grid.Risky, 0), nil
	case "frisky":
		return sp.Setup.Policy(grid.FRisky, sp.Setup.F), nil
	default:
		return grid.Policy{}, fmt.Errorf("fleet: unknown mode %q (want secure, risky or frisky)", sp.Mode)
	}
}

// Validate checks the spec's shard geometry.
func (sp *Spec) Validate() error {
	if sp.Shards < 1 {
		return fmt.Errorf("fleet: spec needs at least one shard, has %d", sp.Shards)
	}
	if sp.Shards > len(sp.Sites) {
		return fmt.Errorf("fleet: %d shards need at least %d sites, have %d", sp.Shards, sp.Shards, len(sp.Sites))
	}
	if _, err := sp.policy(); err != nil {
		return err
	}
	return nil
}

// Parts returns the spec's partition table (round-robin, the same
// PartitionSites the in-process coordinator uses).
func (sp *Spec) Parts() [][]int { return sched.PartitionSites(len(sp.Sites), sp.Shards) }

// ShardConfig derives shard i's engine config: its site partition, its
// own scheduler instance, its labelled RNG streams, its slice of the
// churn trace. This is the single construction path for in-process
// shards (server.New delegates here) and workers alike.
func (sp *Spec) ShardConfig(i int, durable bool) (sched.RunConfig, error) {
	if err := sp.Validate(); err != nil {
		return sched.RunConfig{}, err
	}
	if i < 0 || i >= sp.Shards {
		return sched.RunConfig{}, fmt.Errorf("fleet: shard %d outside [0, %d)", i, sp.Shards)
	}
	policy, err := sp.policy()
	if err != nil {
		return sched.RunConfig{}, err
	}
	parts := sp.Parts()
	sites := sched.ShardSites(sp.Sites, parts[i])
	root := rng.New(sp.Seed)
	scheduler, err := sp.Setup.SchedulerByName(sp.Algo, policy,
		root.Derive(sched.ShardRNGLabel("scheduler", sp.Shards, i)), sp.Training, sites)
	if err != nil {
		return sched.RunConfig{}, err
	}
	return sched.RunConfig{
		Sites:         sites,
		Scheduler:     scheduler,
		BatchInterval: sp.BatchInterval,
		Security:      sp.Setup.Model(),
		FailureTiming: sp.Setup.FailTiming,
		Rand:          root.Derive(sched.ShardRNGLabel("engine", sp.Shards, i)),
		Dynamics:      sched.PartitionDynamics(sp.Dynamics, parts[i]),
		Admission:     &sched.AdmissionConfig{RoundBudget: sp.RoundBudget, Weights: sp.Weights},
		// A long-running shard cannot afford per-job records; the
		// incremental accumulator carries the metrics (same choice the
		// daemon makes).
		DiscardRecords: true,
		Durable:        durable,
	}, nil
}

// Fingerprint is a stable content hash of the spec. The worker pins it
// at configuration time and refuses attaches (and WAL recoveries)
// under a different one: silently mixing engines built from diverging
// specs would break the determinism contract in ways no test at either
// end could see locally. json.Marshal sorts map keys, so the encoding
// is canonical.
func (sp *Spec) Fingerprint() (string, error) {
	payload, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}
