package audience

import (
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/index"
	"github.com/treads-project/treads/internal/profile"
)

// Index integration: when EnableIndex has been called, the engine answers
// PotentialReach / CountMatches / SpecMatches from the inverted bitmap index
// (internal/index) instead of scanning every profile. The index is kept
// incrementally consistent through a profile.Watcher, and every fast path
// falls back to the linear scan whenever a spec contains something the
// index cannot represent (geo radius targeting, an audience created before
// its bitmap was seeded). The differential tests in index_diff_test.go pin
// the two paths to byte-identical results.
//
// Per-kind strategy:
//
//   - PII and lookalike audiences carry a materialized membership bitmap
//     (Audience.bits), seeded by a one-time scan at creation/enable and
//     updated per profile event by the watcher.
//   - Engagement audiences read the index's live per-page like bitmaps.
//   - Affinity audiences are a query-time OR of attribute posting lists.
//   - Website audiences build a query-time bitmap from the pixel
//     registry's visitor list, keeping the registry authoritative.

// EnableIndex builds the inverted index over the engine's store and
// attaches the watcher that keeps it consistent with future profile adds,
// attribute changes, and page likes/unlikes. Call during platform
// construction, before concurrent traffic. Enabling twice is a no-op.
func (e *Engine) EnableIndex() error {
	e.mu.Lock()
	if e.idx != nil {
		e.mu.Unlock()
		return nil
	}
	idx := index.New(index.Options{SizeHint: e.store.Len()})
	e.idx = idx
	e.mu.Unlock()

	// SetWatcher replays ProfileAdded for every existing profile, which is
	// what bulk-builds the index (slot order = store insertion order).
	t0 := time.Now()
	e.store.SetWatcher(&engineWatcher{e: e})
	index.ObserveBuild(time.Since(t0))
	idx.RefreshMemoryGauge()

	// Audiences created before the index existed need their membership
	// bitmaps seeded now that every profile has a slot.
	e.mu.RLock()
	var seed []*Audience
	for _, a := range e.audiences {
		if a.Kind == KindPII || a.Kind == KindLookalike {
			seed = append(seed, a)
		}
	}
	e.mu.RUnlock()
	for _, a := range seed {
		e.seedAudienceBits(a)
	}
	return nil
}

// Index returns the engine's inverted index, or nil when running scan-only.
func (e *Engine) Index() *index.Index {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.idx
}

// seedAudienceBits materializes the membership bitmap for a PII or
// lookalike audience by one scan over the store. No-op for other kinds or
// when the index is disabled.
func (e *Engine) seedAudienceBits(a *Audience) {
	if a.Kind != KindPII && a.Kind != KindLookalike {
		return
	}
	e.mu.RLock()
	idx := e.idx
	e.mu.RUnlock()
	if idx == nil {
		return
	}
	b := index.NewBitmap(idx.Len())
	e.store.Each(func(p *profile.Profile) {
		if !e.MemberOf(a, p) {
			return
		}
		if s, ok := idx.Slot(p.ID); ok {
			idx.SetBit(b, s)
		}
	})
	e.mu.Lock()
	a.bits = b
	e.mu.Unlock()
}

// engineWatcher adapts profile mutation events into index maintenance.
// Lock order is always Engine.mu → Index.mu, matching the query paths.
type engineWatcher struct{ e *Engine }

func (w *engineWatcher) ProfileAdded(p *profile.Profile) {
	e := w.e
	e.mu.RLock()
	idx := e.idx
	e.mu.RUnlock()
	if idx == nil {
		return
	}
	// The EnableIndex replay and a post-enable store.Add both land here;
	// only the latter still needs the profile indexed.
	if _, ok := idx.Slot(p.ID); !ok {
		if err := idx.Add(p); err != nil {
			return
		}
	}
	slot, ok := idx.Slot(p.ID)
	if !ok {
		return
	}
	e.mu.RLock()
	for _, a := range e.audiences {
		if a.bits == nil {
			continue
		}
		if e.MemberOf(a, p) {
			idx.SetBit(a.bits, slot)
		}
	}
	e.mu.RUnlock()
}

func (w *engineWatcher) AttrChanged(p *profile.Profile, id attr.ID) {
	e := w.e
	e.mu.RLock()
	idx := e.idx
	e.mu.RUnlock()
	if idx == nil {
		return
	}
	slot, ok := idx.Slot(p.ID)
	if !ok {
		return // pre-Add mutation; Add will index the final state
	}
	idx.NoteAttrChanged(p, id)
	// Lookalike membership is a function of the user's attributes, so an
	// attribute change can flip it either way. PII bitmaps are unaffected;
	// affinity audiences read the (just-updated) posting lists directly.
	e.mu.RLock()
	for _, a := range e.audiences {
		if a.Kind != KindLookalike || a.bits == nil {
			continue
		}
		if a.lookalikeMatch(p) {
			idx.SetBit(a.bits, slot)
		} else {
			idx.ClearBit(a.bits, slot)
		}
	}
	e.mu.RUnlock()
}

func (w *engineWatcher) LikeChanged(p *profile.Profile, pageID string, liked bool) {
	e := w.e
	e.mu.RLock()
	idx := e.idx
	e.mu.RUnlock()
	if idx == nil {
		return
	}
	idx.NoteLike(p.ID, pageID, liked)
}

// audienceNodeLocked compiles one audience's membership into a plan node.
// Caller holds e.mu (read). ok is false when the audience cannot be
// answered from the index.
func (e *Engine) audienceNodeLocked(a *Audience) (index.Node, bool) {
	switch a.Kind {
	case KindPII, KindLookalike:
		if a.bits == nil {
			return nil, false
		}
		return index.BitmapNode(a.bits), true
	case KindEngagement:
		return e.idx.LikesNode(a.pageID), true
	case KindAffinity:
		ids := make([]attr.ID, 0, len(a.affinity))
		for id := range a.affinity {
			ids = append(ids, id)
		}
		return e.idx.AnyAttrNode(ids), true
	case KindWebsite:
		return e.idx.UserSetNode(e.pixels.Visitors(a.pixel)), true
	default:
		return nil, false
	}
}

// planLocked turns a compiled spec into one index plan node. Caller holds
// e.mu (read) and has checked e.idx != nil.
func (e *Engine) planLocked(c *Compiled) (index.Node, bool) {
	ops := make([]index.Node, 0, 2+len(c.includeAll)+len(c.exclude))
	for _, a := range c.includeAll {
		n, ok := e.audienceNodeLocked(a)
		if !ok {
			return nil, false
		}
		ops = append(ops, n)
	}
	if len(c.include) > 0 {
		inc := make([]index.Node, 0, len(c.include))
		for _, a := range c.include {
			n, ok := e.audienceNodeLocked(a)
			if !ok {
				return nil, false
			}
			inc = append(inc, n)
		}
		ops = append(ops, index.OrNodes(inc...))
	}
	for _, a := range c.exclude {
		n, ok := e.audienceNodeLocked(a)
		if !ok {
			return nil, false
		}
		ops = append(ops, index.NotNode(n))
	}
	en, ok := e.idx.CompileExpr(c.expr)
	if !ok {
		return nil, false
	}
	ops = append(ops, en)
	return index.AndNodes(ops...), true
}

// plan is planLocked under the lock, marking the query as a fallback when
// the index exists but cannot answer the spec. idx is nil (and ok false)
// when the engine runs scan-only.
func (e *Engine) plan(c *Compiled) (idx *index.Index, node index.Node, ok bool) {
	e.mu.RLock()
	idx = e.idx
	if ok = idx != nil; ok {
		node, ok = e.planLocked(c)
	}
	e.mu.RUnlock()
	if !ok && idx != nil {
		index.MarkFallback()
	}
	return idx, node, ok
}

// memberOfIndexedLocked is the single-user membership probe. Caller holds
// e.mu (read). ok is false when the kind cannot be probed from the index.
func (e *Engine) memberOfIndexedLocked(a *Audience, slot uint32, p *profile.Profile) (member, ok bool) {
	switch a.Kind {
	case KindPII, KindLookalike:
		if a.bits == nil {
			return false, false
		}
		return e.idx.TestBit(a.bits, slot), true
	case KindEngagement:
		return e.idx.TestLike(a.pageID, slot), true
	case KindAffinity:
		for id := range a.affinity {
			if e.idx.TestAttr(id, slot) {
				return true, true
			}
		}
		return false, true
	case KindWebsite:
		return e.pixels.HasVisited(a.pixel, p.ID), true
	default:
		return false, false
	}
}

// matchIndexed is the delivery-time eligibility fast path: audience
// membership via bitmap probes, the targeting expression via
// MatchExprSlot. handled is false (and the caller falls back to the scan
// path) when the engine is scan-only, the user has no slot, or the spec is
// not indexable.
func (e *Engine) matchIndexed(c *Compiled, p *profile.Profile) (match, handled bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	idx := e.idx
	if idx == nil {
		return false, false
	}
	slot, ok := idx.Slot(p.ID)
	if !ok {
		return fallback()
	}
	for _, a := range c.includeAll {
		m, ok := e.memberOfIndexedLocked(a, slot, p)
		if !ok {
			return fallback()
		}
		if !m {
			return false, true
		}
	}
	if len(c.include) > 0 {
		in := false
		for _, a := range c.include {
			m, ok := e.memberOfIndexedLocked(a, slot, p)
			if !ok {
				return fallback()
			}
			if m {
				in = true
				break
			}
		}
		if !in {
			return false, true
		}
	}
	for _, a := range c.exclude {
		m, ok := e.memberOfIndexedLocked(a, slot, p)
		if !ok {
			return fallback()
		}
		if m {
			return false, true
		}
	}
	m, ok := idx.MatchExprSlot(c.expr, p, slot)
	if !ok {
		return fallback()
	}
	return m, true
}

// fallback marks a single-user match the index could not answer.
func fallback() (match, handled bool) {
	index.MarkFallback()
	return false, false
}

// CountMatches returns the exact number of users matching the spec — the
// unrounded quantity PotentialReach thresholds. Indexed when possible,
// linear scan otherwise.
func (e *Engine) CountMatches(spec Spec) (int, error) {
	c, err := e.Compile(spec)
	if err != nil {
		return 0, err
	}
	if idx, node, ok := e.plan(&c); ok {
		return idx.CountNode(node), nil
	}
	n := 0
	e.store.Each(func(p *profile.Profile) {
		if e.matchScan(&c, p) {
			n++
		}
	})
	return n, nil
}
