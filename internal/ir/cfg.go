package ir

// This file holds the CFG analyses shared by the verifier and the pass
// pipeline: predecessor maps, reverse postorder, and dominator trees
// (Cooper–Harvey–Kennedy iterative algorithm).

// Preds computes the predecessor map of the function's CFG.
func Preds(f *Func) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder (a topological-ish order where dominators come first).
func ReversePostorder(f *Func) []*Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// DomTree is the dominator tree of a function's CFG.
type DomTree struct {
	fn    *Func
	idom  map[*Block]*Block
	order map[*Block]int // RPO number, for fast intersection
	rpo   []*Block
}

// NewDomTree computes dominators for all blocks reachable from entry.
func NewDomTree(f *Func) *DomTree { return newDomTree(f, Preds(f)) }

// newDomTree is NewDomTree over an already computed predecessor map.
func newDomTree(f *Func, preds map[*Block][]*Block) *DomTree {
	rpo := ReversePostorder(f)
	order := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		order[b] = i
	}
	idom := make(map[*Block]*Block, len(rpo))
	entry := f.Entry()
	idom[entry] = entry

	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range preds[b] {
				if _, ok := order[p]; !ok {
					continue // unreachable predecessor
				}
				if idom[p] == nil {
					continue // not processed yet
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(idom, order, p, newIdom)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return &DomTree{fn: f, idom: idom, order: order, rpo: rpo}
}

func intersect(idom map[*Block]*Block, order map[*Block]int, a, b *Block) *Block {
	for a != b {
		for order[a] > order[b] {
			a = idom[a]
		}
		for order[b] > order[a] {
			b = idom[b]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (entry's IDom is itself).
func (d *DomTree) IDom(b *Block) *Block { return d.idom[b] }

// Reachable reports whether b is reachable from entry.
func (d *DomTree) Reachable(b *Block) bool {
	_, ok := d.order[b]
	return ok
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *Block) bool {
	if !d.Reachable(a) || !d.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.idom[b]
		if next == b || next == nil {
			return false
		}
		b = next
	}
}

// RPO returns the reverse-postorder traversal used by the tree.
func (d *DomTree) RPO() []*Block { return d.rpo }

// DominatesValueUse reports whether the definition of v is available at
// instruction user's position (the SSA dominance rule). Constants,
// params, globals and functions are available everywhere. For a phi
// use, availability is checked at the end of the incoming block.
func (d *DomTree) DominatesValueUse(v Value, user *Instr, phiPred *Block) bool {
	def, ok := v.(*Instr)
	if !ok {
		return true
	}
	defBlock := def.Block()
	if defBlock == nil {
		return false
	}
	if user.Op == OpPhi && phiPred != nil {
		// The value must be live-out of the predecessor.
		return d.Dominates(defBlock, phiPred)
	}
	useBlock := user.Block()
	if defBlock == useBlock {
		// Same block: definition must come first.
		for _, in := range defBlock.Instrs {
			if in == def {
				return true
			}
			if in == user {
				return false
			}
		}
		return false
	}
	return d.Dominates(defBlock, useBlock)
}
