package index

import (
	"fmt"
	"math/bits"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/profile"
)

// Node is one operator of a compiled query plan. A plan evaluates
// word-streamed: the driver asks the root for word w, operators combine
// their children's word w with single uint64 ops, and leaves read word w of
// a posting list. No intermediate bitmap is ever materialized, so
// evaluating a plan allocates nothing (pinned by TestQueryZeroAlloc and the
// CI bench smoke).
//
// Words beyond a posting list's tail read as zero, and NOT simply inverts —
// bits past the population size may be garbage inside the circuit, which is
// harmless because every boolean operator distributes over the final
// population mask the query driver applies to the last word.
//
// A Node captures *Bitmap pointers at compile time and reads them under the
// query's read lock, so it stays valid across index mutations; compile
// plans cheaply per query rather than caching them across population
// changes if exact point-in-time snapshots matter.
type Node interface {
	word(w int) uint64
}

type constNode uint64 // all() is ^0, none is 0

func (c constNode) word(int) uint64 { return uint64(c) }

type bitsNode struct{ b *Bitmap }

func (n bitsNode) word(w int) uint64 { return n.b.word(w) }

// anyNode is the union of several posting lists (age ranges, affinity
// attribute sets) without an interface call per operand.
type anyNode struct{ bs []*Bitmap }

func (n anyNode) word(w int) uint64 {
	var v uint64
	for _, b := range n.bs {
		v |= b.word(w)
	}
	return v
}

type andNode struct{ ops []Node }

func (n andNode) word(w int) uint64 {
	v := ^uint64(0)
	for _, op := range n.ops {
		v &= op.word(w)
	}
	return v
}

type orNode struct{ ops []Node }

func (n orNode) word(w int) uint64 {
	var v uint64
	for _, op := range n.ops {
		v |= op.word(w)
	}
	return v
}

type notNode struct{ op Node }

func (n notNode) word(w int) uint64 { return ^n.op.word(w) }

// AndNodes intersects the operands (everything with zero operands).
func AndNodes(ops ...Node) Node {
	if len(ops) == 1 {
		return ops[0]
	}
	return andNode{ops: ops}
}

// OrNodes unions the operands (nothing with zero operands).
func OrNodes(ops ...Node) Node {
	if len(ops) == 1 {
		return ops[0]
	}
	return orNode{ops: ops}
}

// NotNode complements the operand within the population.
func NotNode(op Node) Node { return notNode{op: op} }

// BitmapNode wraps a caller-owned bitmap (an audience membership bitmap
// maintained through SetBit/ClearBit) as a plan leaf.
func BitmapNode(b *Bitmap) Node { return bitsNode{b: b} }

// AnyAttrNode matches users holding at least one of the attributes — the
// shape of an affinity audience.
func (x *Index) AnyAttrNode(ids []attr.ID) Node {
	x.mu.RLock()
	defer x.mu.RUnlock()
	bs := make([]*Bitmap, 0, len(ids))
	for _, id := range ids {
		if b := x.has[id]; b != nil {
			bs = append(bs, b)
		}
	}
	if len(bs) == 0 {
		return constNode(0)
	}
	return anyNode{bs: bs}
}

// LikesNode is the posting list of a page's current likers — the shape of
// an engagement audience.
func (x *Index) LikesNode(page string) Node {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if b := x.likes[page]; b != nil {
		return bitsNode{b: b}
	}
	return constNode(0)
}

// UserSetNode materializes an explicit user list (a pixel's visitors, a
// PII match result) into a private bitmap leaf. Unknown users are skipped.
func (x *Index) UserSetNode(ids []profile.UserID) Node {
	x.mu.RLock()
	defer x.mu.RUnlock()
	b := NewBitmap(len(x.uids))
	for _, id := range ids {
		if s, ok := x.slot[id]; ok {
			b.set(s)
		}
	}
	return bitsNode{b: b}
}

// CompileExpr compiles a targeting expression into a plan. ok is false when
// the expression contains an operator the index cannot answer from posting
// lists (geo radius targeting, unknown extensions) — callers fall back to
// the linear scan.
func (x *Index) CompileExpr(e attr.Expr) (Node, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.compileLocked(e)
}

func (x *Index) compileLocked(e attr.Expr) (Node, bool) {
	switch v := e.(type) {
	case nil:
		return constNode(^uint64(0)), true
	case attr.MatchAll:
		return constNode(^uint64(0)), true
	case attr.Has:
		return bitsNode{b: x.has[v.ID]}, true
	case attr.ValueIs:
		return bitsNode{b: x.vals[v.ID][v.Value]}, true
	case attr.AgeBetween:
		bs := make([]*Bitmap, 0, 8)
		for age, b := range x.ages {
			if age >= v.Min && age <= v.Max {
				bs = append(bs, b)
			}
		}
		return anyNode{bs: bs}, true
	case attr.GenderIs:
		return bitsNode{b: x.genders[v.Gender]}, true
	case attr.CountryIs:
		return bitsNode{b: x.countries[v.Country]}, true
	case attr.RegionIs:
		return bitsNode{b: x.regions[v.Region]}, true
	case attr.And:
		ops := make([]Node, len(v.Ops))
		for i, op := range v.Ops {
			n, ok := x.compileLocked(op)
			if !ok {
				return nil, false
			}
			ops[i] = n
		}
		return andNode{ops: ops}, true
	case attr.Or:
		ops := make([]Node, len(v.Ops))
		for i, op := range v.Ops {
			n, ok := x.compileLocked(op)
			if !ok {
				return nil, false
			}
			ops[i] = n
		}
		return orNode{ops: ops}, true
	case attr.Not:
		n, ok := x.compileLocked(v.Op)
		if !ok {
			return nil, false
		}
		return notNode{op: n}, true
	default:
		return nil, false
	}
}

// CountNode evaluates the plan and returns the number of matching users —
// the popcount reach query. Evaluation is allocation-free.
func (x *Index) CountNode(n Node) int {
	t0 := time.Now()
	x.mu.RLock()
	total := x.countLocked(n)
	x.mu.RUnlock()
	querySeconds.ObserveSince(t0)
	queriesIndexed.Inc()
	return total
}

func (x *Index) countLocked(n Node) int {
	users := len(x.uids)
	if users == 0 {
		return 0
	}
	full := users / wordBits
	total := 0
	for w := 0; w < full; w++ {
		total += bits.OnesCount64(n.word(w))
	}
	if rem := users % wordBits; rem != 0 {
		total += bits.OnesCount64(n.word(full) & (1<<rem - 1))
	}
	return total
}

// VerifyExpr is the index's self-check: it counts the expression through the
// compiled bitmap plan, then by matching every profile of src — the store
// the index was built from — and returns an error when the two differ. The
// index lock is released before src is scanned (the store→watcher→index
// path takes the two locks in the other order), so the check is only
// meaningful on a quiesced store: a mutation landing between the two counts
// reads as a mismatch.
func (x *Index) VerifyExpr(e attr.Expr, src Source) (bitmapCount, scanCount int, err error) {
	x.mu.RLock()
	n, ok := x.compileLocked(e)
	if ok {
		bitmapCount = x.countLocked(n)
	}
	x.mu.RUnlock()
	if !ok {
		return 0, 0, fmt.Errorf("index: expression not indexable")
	}
	src.Each(func(p *profile.Profile) {
		if e == nil || e.Match(p) {
			scanCount++
		}
	})
	if bitmapCount != scanCount {
		err = fmt.Errorf("index: posting lists count %d users, a scan of the profiles %d", bitmapCount, scanCount)
	}
	return bitmapCount, scanCount, err
}

// TestNode reports whether the user in the slot matches the plan.
func (x *Index) TestNode(n Node, slot uint32) bool {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if int(slot) >= len(x.uids) {
		return false
	}
	return n.word(int(slot)/wordBits)&(1<<(slot%wordBits)) != 0
}

// MatchExprSlot evaluates a targeting expression for a single user by
// probing posting-list bits — the delivery-time eligibility path.
// Demographic predicates consult the subject directly (they are O(1)
// either way); attribute predicates probe the index. ok is false when the
// expression contains an unsupported operator.
func (x *Index) MatchExprSlot(e attr.Expr, subj attr.Subject, slot uint32) (match, ok bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.matchSlotLocked(e, subj, slot)
}

func (x *Index) matchSlotLocked(e attr.Expr, subj attr.Subject, slot uint32) (match, ok bool) {
	switch v := e.(type) {
	case nil, attr.MatchAll:
		return true, true
	case attr.Has:
		b := x.has[v.ID]
		return b != nil && b.test(slot), true
	case attr.ValueIs:
		b := x.vals[v.ID][v.Value]
		return b != nil && b.test(slot), true
	case attr.AgeBetween:
		age := subj.Age()
		return age >= v.Min && age <= v.Max, true
	case attr.GenderIs:
		return subj.Gender() == v.Gender, true
	case attr.CountryIs:
		return subj.Country() == v.Country, true
	case attr.RegionIs:
		return subj.Region() == v.Region, true
	case attr.And:
		for _, op := range v.Ops {
			m, ok := x.matchSlotLocked(op, subj, slot)
			if !ok {
				return false, false
			}
			if !m {
				return false, true
			}
		}
		return true, true
	case attr.Or:
		for _, op := range v.Ops {
			m, ok := x.matchSlotLocked(op, subj, slot)
			if !ok {
				return false, false
			}
			if m {
				return true, true
			}
		}
		return false, true
	case attr.Not:
		m, ok := x.matchSlotLocked(v.Op, subj, slot)
		return !m, ok
	default:
		return false, false
	}
}
