package machine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/units"
)

// Platform is the first-class description of a (possibly heterogeneous)
// cluster: named node pools, each a Spec times a node count, with a
// stable global rank numbering across pools. It is the platform contract
// every layer above speaks — the paper's single-machine evaluation is
// the one-pool special case (Homogeneous), and the §VII future-work
// extension ("we want to extend the current model to heterogeneous
// systems") is simply more pools.
//
// Rank numbering follows the paper's per-processor energy model: one
// rank per node, pool 0 supplying ranks [0, pool0 nodes) first, then
// pool 1, and so on. The numbering is a property of the platform alone,
// so every layer (cluster provisioning, scheduler pools, operating-point
// caches) agrees on which pool hosts a rank by construction.
type Platform struct {
	// Name labels the platform in reports; empty derives a label from
	// the pools (String).
	Name string
	// Pools are the node pools in rank order.
	Pools []NodePool
}

// NodePool is one homogeneous slice of a platform: a node type and how
// many of its nodes the platform deploys.
type NodePool struct {
	// Name identifies the pool; empty defaults to the Spec name. Pool
	// names must be unique within a platform.
	Name string
	// Spec is the node type.
	Spec Spec
	// Nodes is the deployed node count; zero means Spec.Nodes.
	Nodes int
}

// PoolName returns the effective pool name.
func (np NodePool) PoolName() string {
	if np.Name != "" {
		return np.Name
	}
	return np.Spec.Name
}

// NodeCount returns the effective deployed node count.
func (np NodePool) NodeCount() int {
	if np.Nodes > 0 {
		return np.Nodes
	}
	return np.Spec.Nodes
}

// Ranks returns how many global ranks the pool supplies — one per node,
// the paper's per-processor energy model.
func (np NodePool) Ranks() int { return np.NodeCount() }

// MaxRanks returns the pool's total core count (NodeCount × cores per
// node) — the bound of offline scalability sweeps.
func (np NodePool) MaxRanks() int { return np.NodeCount() * np.Spec.CoresPerNode }

// Homogeneous wraps a single node type as a one-pool platform — the
// classic single-Spec cluster every pre-platform API described.
func Homogeneous(spec Spec) Platform {
	return Platform{Name: spec.Name, Pools: []NodePool{{Spec: spec}}}
}

// Validate checks every pool and the pool-name uniqueness the rank
// numbering relies on.
func (pl Platform) Validate() error {
	if len(pl.Pools) == 0 {
		return errors.New("machine: platform needs at least one node pool")
	}
	seen := make(map[string]bool, len(pl.Pools))
	for i, np := range pl.Pools {
		if err := np.Spec.Validate(); err != nil {
			return fmt.Errorf("machine: pool %d: %w", i, err)
		}
		if np.Nodes < 0 {
			return fmt.Errorf("machine: pool %d (%s): negative node count %d", i, np.PoolName(), np.Nodes)
		}
		if np.NodeCount() <= 0 {
			return fmt.Errorf("machine: pool %d (%s): no nodes", i, np.PoolName())
		}
		name := np.PoolName()
		if seen[name] {
			return fmt.Errorf("machine: duplicate pool name %q", name)
		}
		seen[name] = true
	}
	return nil
}

// TotalRanks returns the platform-wide rank count (one rank per node).
func (pl Platform) TotalRanks() int {
	total := 0
	for _, np := range pl.Pools {
		total += np.Ranks()
	}
	return total
}

// PoolOf maps a global rank to the index of the pool hosting it.
func (pl Platform) PoolOf(rank int) (int, error) {
	if rank < 0 {
		return 0, fmt.Errorf("machine: negative rank %d", rank)
	}
	r := rank
	for i, np := range pl.Pools {
		if r < np.Ranks() {
			return i, nil
		}
		r -= np.Ranks()
	}
	return 0, fmt.Errorf("machine: rank %d beyond platform capacity %d", rank, pl.TotalRanks())
}

// String renders the platform label: the explicit Name when set, the
// bare spec name for a one-pool platform at its spec's deployed size,
// and a "name:count+name:count" composition otherwise.
func (pl Platform) String() string {
	if pl.Name != "" {
		return pl.Name
	}
	if len(pl.Pools) == 1 && pl.Pools[0].Nodes == 0 {
		return pl.Pools[0].PoolName()
	}
	parts := make([]string, len(pl.Pools))
	for i, np := range pl.Pools {
		parts[i] = fmt.Sprintf("%s:%d", np.PoolName(), np.NodeCount())
	}
	return strings.Join(parts, "+")
}

// MinFrequencies returns each pool's DVFS ladder minimum, indexed by
// pool — the parked operating points a power-capped scheduler
// provisions at.
func (pl Platform) MinFrequencies() []units.Hertz {
	fs := make([]units.Hertz, len(pl.Pools))
	for i, np := range pl.Pools {
		fs[i] = np.Spec.MinFrequency()
	}
	return fs
}

// ParsePlatform builds a platform from a comma-separated pool list of
// "preset" or "preset:nodes" entries against the shipped presets, e.g.
// "systemg", "systemg:32,dori:32". A bare preset deploys the preset's
// full node count.
func ParsePlatform(s string) (Platform, error) {
	presets := Presets()
	var pl Platform
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Platform{}, fmt.Errorf("machine: empty pool in platform %q", s)
		}
		name, countStr, hasCount := strings.Cut(part, ":")
		spec, ok := presets[strings.ToLower(name)]
		if !ok {
			return Platform{}, fmt.Errorf("machine: unknown cluster preset %q", name)
		}
		np := NodePool{Spec: spec}
		if hasCount {
			n, err := strconv.Atoi(countStr)
			if err != nil || n <= 0 {
				return Platform{}, fmt.Errorf("machine: bad node count %q in pool %q", countStr, part)
			}
			np.Nodes = n
		}
		pl.Pools = append(pl.Pools, np)
	}
	if err := pl.Validate(); err != nil {
		return Platform{}, err
	}
	return pl, nil
}
