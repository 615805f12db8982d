package reduce

import (
	"repro/internal/dist"
	"repro/internal/wire"
)

// KWRounds returns the exact round cost of KWReduceColors: target rounds per
// halving of the number of palette blocks.
func KWRounds(k, target int) int {
	if target < 1 || k <= target {
		return 0
	}
	blocks := (k + target - 1) / target
	rounds := 0
	for blocks > 1 {
		rounds += target
		blocks = (blocks + 1) / 2
	}
	return rounds
}

// KWReduceColors reduces a legal coloring with palette {1..k} on the active
// subgraph to a legal coloring with palette {1..target} in KWRounds(k,
// target) = O(target·log(k/target)) rounds, using the Kuhn–Wattenhofer
// divide-and-conquer [20]: the palette is split into blocks of target
// colors; pairs of blocks merge in parallel, the upper block's color
// classes recoloring greedily into the lower block one class per round
// (each class is independent, and a vertex has at most target−1 neighbors,
// so a free color always exists); log₂(k/target) merge levels suffice.
//
// target must exceed the active-subgraph degree of every vertex; all
// vertices must pass identical k and target. Compare ReduceColors, the
// naive one-class-per-round variant with cost k−target: the paper's [4]
// achieves O(Δ)+log* n, which this substitutes at an O(log Δ) factor
// (substitution N1 in DESIGN.md).
func KWReduceColors(v dist.Process, myColor, k, target int, active []bool) int {
	if target < 1 || k <= target {
		return myColor
	}
	deg := v.Deg()
	// One outbox and one neighbor table serve every round. The outbox holds
	// the encoding of sent, re-encoded into a fresh buffer only when myColor
	// changes: a buffer handed to Round is never written again.
	out := make([][]byte, deg)
	nbr := make([]int, deg)
	var msg []byte
	var used []bool // kwFree scratch
	sent := 0
	blocks := (k + target - 1) / target
	for blocks > 1 {
		// 0-based decomposition: color c-1 = block·target + pos.
		myBlock := (myColor - 1) / target
		myPos := (myColor - 1) % target
		upper := myBlock%2 == 1
		pairLow := (myBlock / 2) * 2 // block index of the pair's lower half
		clear(nbr)
		for j := 0; j < target; j++ {
			if msg == nil || myColor != sent {
				msg, sent = wire.EncodeInts(myColor), myColor
				for p := 0; p < deg; p++ {
					if active == nil || active[p] {
						out[p] = msg
					}
				}
			}
			in := v.Round(out)
			for p := 0; p < deg; p++ {
				if in[p] == nil {
					continue
				}
				val, err := wire.DecodeInt(in[p])
				if err != nil {
					panic("reduce: bad color message: " + err.Error())
				}
				nbr[p] = val
			}
			if upper && myPos == j {
				if used == nil {
					used = make([]bool, target)
				}
				free, ok := kwFree(nbr, active, pairLow, target, used)
				if !ok {
					panic(errNoFree)
				}
				myColor = free
			}
		}
		// Renumber into the halved block space: new block = old block / 2.
		b := (myColor - 1) / target
		pos := (myColor - 1) % target
		myColor = (b/2)*target + pos + 1
		blocks = (blocks + 1) / 2
	}
	return myColor
}

// KWReduceFlat is KWReduceColors run at every vertex of a flat network in
// one pass, for the flat (dist.CompiledAlgo) forms: colors[v] is vertex v's
// color, reduced in place, and pm's in-ports are the active ports. It
// accounts through t the KWRounds(k, target) rounds, each with every vertex
// arriving and every active port carrying its vertex's current color — the
// per-vertex form keeps its outbox across rounds. A vertex that finds no
// free color ends the pass with the error its per-vertex form's panic
// produces.
//
// Colors change in place within a round: the vertices recoloring in one
// round sit at one position of the upper blocks, so in a legal coloring no
// two are adjacent in one pair, and each reads only its own pair's lower
// block, which no other recoloring in the round touches.
func KWReduceFlat(pm *dist.PortMask, colors []int, k, target int, t *dist.Tally) error {
	if target < 1 || k <= target {
		return nil
	}
	used := make([]bool, target)
	nbrs := make([]int, 0, pm.G.MaxDegree())
	for blocks := (k + target - 1) / target; blocks > 1; blocks = (blocks + 1) / 2 {
		for j := 0; j < target; j++ {
			if err := pm.Exchange(t, colors); err != nil {
				return err
			}
			for v, c := range colors {
				if block := (c - 1) / target; block%2 == 1 && (c-1)%target == j {
					nbrs = pm.Gather(nbrs[:0], v, colors)
					free, ok := kwFree(nbrs, nil, (block/2)*2, target, used)
					if !ok {
						return dist.VertexPanicError(pm.G.ID(v), errNoFree)
					}
					colors[v] = free
				}
			}
		}
		for v, c := range colors {
			b, pos := (c-1)/target, (c-1)%target
			colors[v] = (b/2)*target + pos + 1
		}
	}
	return nil
}

const errNoFree = "reduce: no free color in block; degree bound violated"

// kwFree returns the smallest color in the pair's lower block used by no
// active neighbor, and false if there is none: nbr holds the neighbors'
// colors per port, active masks the ports (nil = all), and used is scratch
// of length target.
func kwFree(nbr []int, active []bool, pairLow, target int, used []bool) (int, bool) {
	lo := pairLow*target + 1 // first color of the lower block (1-based)
	clear(used)
	for p, c := range nbr {
		if active != nil && !active[p] {
			continue
		}
		if c >= lo && c < lo+target {
			used[c-lo] = true
		}
	}
	for i, u := range used {
		if !u {
			return lo + i, true
		}
	}
	return 0, false
}
