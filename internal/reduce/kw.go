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
				myColor = kwFree(nbr, active, pairLow, target)
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

// kwFree returns the smallest color in the pair's lower block not used by
// an active neighbor.
func kwFree(nbr []int, active []bool, pairLow, target int) int {
	lo := pairLow*target + 1 // first color of the lower block (1-based)
	used := make([]bool, target)
	for p, c := range nbr {
		if active != nil && !active[p] {
			continue
		}
		if c >= lo && c < lo+target {
			used[c-lo] = true
		}
	}
	for i := 0; i < target; i++ {
		if !used[i] {
			return lo + i
		}
	}
	panic("reduce: no free color in block; degree bound violated")
}
