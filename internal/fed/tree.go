package fed

import (
	"fmt"
	"strconv"
	"strings"

	"fedpower/internal/nn"
	"fedpower/internal/par"
)

// Hierarchical aggregation topology. A TreeNode describes one aggregation
// node: the leaf devices attached directly to it and the child aggregators
// below it. The root of a tree is the central server; interior nodes are
// edge/regional aggregators (fed.Aggregator over TCP, or emulated in
// process by RunTree).
//
// Because every aggregation step in this package is an exact fixed-point
// sum (nn.Accum) and only the root rounds and scales, the aggregated model
// is a function of the leaf multiset only: any topology over the same
// clients — including the flat single-server one — produces bit-identical
// parameters every round. See DESIGN.md, "Hierarchical aggregation".
type TreeNode struct {
	// Leaves is the number of leaf devices attached directly to this node.
	Leaves int
	// Children are the child aggregators below this node.
	Children []*TreeNode
}

// LeafCount returns the total leaf-device population of the subtree.
func (t *TreeNode) LeafCount() int {
	n := t.Leaves
	for _, c := range t.Children {
		n += c.LeafCount()
	}
	return n
}

// Depth returns the number of aggregation levels in the subtree: 1 for a
// flat server with only direct leaves, 2 for one tier of edge aggregators,
// and so on.
func (t *TreeNode) Depth() int {
	d := 1
	for _, c := range t.Children {
		if cd := c.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}

// Validate checks the subtree is a usable topology: every node aggregates
// something and every leaf count is non-negative.
func (t *TreeNode) Validate() error {
	if t.Leaves < 0 {
		return fmt.Errorf("fed: negative leaf count %d", t.Leaves)
	}
	if t.Leaves == 0 && len(t.Children) == 0 {
		return fmt.Errorf("fed: aggregation node with no leaves and no children")
	}
	for _, c := range t.Children {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Uniform builds a balanced topology from per-level fan-outs: the last
// number is leaves per deepest aggregator, the ones before it are child
// aggregators per node. Uniform(8) is a flat 8-device server, Uniform(4, 8)
// a 2-level tree of 4 edge aggregators with 8 devices each (32 leaves), and
// Uniform(2, 4, 8) a 3-level tree with 64 leaves.
func Uniform(fanouts ...int) *TreeNode {
	if len(fanouts) == 0 {
		return &TreeNode{}
	}
	if len(fanouts) == 1 {
		return &TreeNode{Leaves: fanouts[0]}
	}
	n := &TreeNode{}
	for i := 0; i < fanouts[0]; i++ {
		n.Children = append(n.Children, Uniform(fanouts[1:]...))
	}
	return n
}

// ParseTopology parses an "AxBxC" fan-out spec (as accepted by the daemon
// CLIs' -topology flags) into a balanced tree: "8" is a flat 8-device
// server, "4x8" four edge aggregators of 8 devices, "2x4x8" two regions of
// four edges of 8 devices.
func ParseTopology(s string) (*TreeNode, error) {
	parts := strings.Split(strings.TrimSpace(s), "x")
	fanouts := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("fed: topology %q: level %d is not a positive integer", s, i)
		}
		fanouts[i] = v
	}
	t := Uniform(fanouts...)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// TreeConfig configures an in-process hierarchical federation (RunTree).
type TreeConfig struct {
	// Rounds is the number of federated rounds; it must be positive.
	Rounds int
	// Parallelism bounds how many leaves train concurrently and how many
	// child subtrees aggregate concurrently at each node; 0 means
	// sequential (width 1), matching RunParallel's convention. Every
	// width produces bit-identical parameters: subtree sums are exact and
	// merged in child order.
	Parallelism int
	// Codec applies the wire-emulation codec on every root↔leaf parameter
	// path, with each leaf's streams seeded by its global leaf index —
	// exactly as the flat runners seed them, so a lossless codec keeps the
	// tree bit-identical to RunParallelCodec. The zero value exchanges raw
	// float64 values.
	Codec Codec
	// Hook, if non-nil, observes the root's global model after every
	// aggregation.
	Hook RoundHook
}

// treeState is one node's prepared aggregation state: its exact sum, the
// global index range of its direct leaves, and the node's own relay-hop
// scratch, all reused across rounds. Scratch is per node — not threaded
// through the recursion — so sibling subtrees can resolve their sums
// concurrently without sharing mutable state.
type treeState struct {
	node        *TreeNode
	acc         *nn.ParamSum
	children    []*treeState
	childLeaves []int // per-child subtree leaf counts (own slot per task)
	leafLo      int
	scratch     []byte // relay-hop wire buffer for merging child sums
}

// buildTreeState assigns global leaf indices in depth-first pre-order (a
// node's direct leaves first, then each child subtree) and allocates the
// per-node sums.
func buildTreeState(t *TreeNode, numParams int, nextLeaf *int) *treeState {
	st := &treeState{node: t, acc: nn.NewParamSum(numParams), leafLo: *nextLeaf}
	*nextLeaf += t.Leaves
	for _, c := range t.Children {
		st.children = append(st.children, buildTreeState(c, numParams, nextLeaf))
	}
	st.childLeaves = make([]int, len(st.children))
	return st
}

// sum computes the node's exact per-parameter subtree sums into st.acc and
// returns the subtree leaf count. Child subtrees resolve their own sums
// first — up to width concurrently, each child state owned by its task —
// then the child results cross an emulated relay hop in child order (hop),
// so the in-process tree crosses the same bytes as the TCP aggregators, not
// a shortcut around them. The ordered merge plus exact child sums make the
// result bit-identical at every width.
func (st *treeState) sum(locals [][]float64, width int) (int, error) {
	st.acc.Reset()
	for l := 0; l < st.node.Leaves; l++ {
		st.acc.Add(locals[st.leafLo+l])
	}
	total := st.node.Leaves
	if len(st.children) == 0 {
		return total, nil
	}
	err := par.ForEach(width, len(st.children), func(i int) error {
		c := st.children[i]
		leaves, err := c.sum(locals, width)
		if err != nil {
			return err
		}
		st.childLeaves[i] = leaves
		return nil
	})
	if err != nil {
		return 0, err
	}
	for ci, c := range st.children {
		if err := st.hop(c); err != nil {
			return 0, err
		}
		total += st.childLeaves[ci]
	}
	return total, nil
}

// hop carries child c's subtree sum across the emulated relay hop into
// st.acc as the TCP relay does: the child writes its relay frame's
// accumulator block into st.scratch, the block is scanned, and the parent
// merges it from those bytes. The block stays in st.scratch until the
// next hop.
func (st *treeState) hop(c *treeState) error {
	st.scratch = c.acc.AppendWire(st.scratch[:0])
	if err := nn.ScanAccumWire(st.scratch, c.acc.NumParams()); err != nil {
		return fmt.Errorf("relay hop: %w", err)
	}
	st.acc.AddWire(st.scratch)
	return nil
}

// RunTree drives an in-process hierarchical federation: clients are
// attached to the topology's leaf slots in depth-first order, each round
// trains every leaf (up to Parallelism concurrently, on the one in-process
// round engine), sums each subtree exactly, merges the sub-sums upward
// through emulated relay hops, and lets the root round the mean. The result
// is bit-identical, every round, to Run / RunParallelCodec over the same
// clients in leaf order — the property TestTreeBitIdenticalRandomTopologies
// pins inside the determinism gate.
func RunTree(global []float64, clients []Client, topo *TreeNode, cfg TreeConfig) error {
	if topo == nil {
		return fmt.Errorf("fed: nil topology")
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	if n := topo.LeafCount(); n != len(clients) {
		return fmt.Errorf("fed: topology has %d leaves for %d clients", n, len(clients))
	}
	var nextLeaf int
	root := buildTreeState(topo, len(global), &nextLeaf)
	return engine{rounds: cfg.Rounds, width: cfg.Parallelism, codec: cfg.Codec, hook: cfg.Hook,
		aggregate: func(dst []float64, locals [][]float64) error {
			total, err := root.sum(locals, cfg.Parallelism)
			if err != nil {
				return err
			}
			root.acc.Mean(dst, total)
			return nil
		}}.run(global, clients)
}
