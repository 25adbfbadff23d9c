package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/profile"
	popgen "github.com/treads-project/treads/internal/workload"
)

const (
	advertiser    = "bench"
	baseCampaigns = 16
	likePages     = 16
	// uncapped is the frequency cap of the broad campaigns: high enough that
	// no user saturates, so the fill ratio stays flat over a run.
	uncapped = 1 << 20
)

// op is one generated request. a and b index into the world: the page for
// a like, the two attributes for a reach, the base campaign for a report.
type op struct {
	kind opKind
	user int32
	a, b int32
}

// campaignTruth is what the harness knows about a campaign it seeded: the
// expression it targets and, for a Tread, which attribute it reveals.
type campaignTruth struct {
	expr attr.Expr
	attr int32 // index into world.attrs; -1 when not a Tread
}

// world is everything the load generator needs to build requests and to
// judge responses: the regenerated ground-truth population, the names the
// seeding created, and which campaign may be shown to whom.
type world struct {
	w     workload
	truth *truth // regenerated from the seed, never read from the platform
	users []string
	attrs []string // platform attribute IDs, catalog order
	pages []string

	pixel string
	base  []string // seeded campaigns, the report targets
	// targeting is the ground truth for the output check: an impression of
	// campaign id may only reach a user its expression matches and, for a
	// Tread, who opted in (user number < Cohort).
	targeting map[string]campaignTruth

	mu    sync.Mutex
	spare []string // created, not yet paused
}

func newWorld(w workload, seed uint64) *world {
	wd := &world{w: w, truth: newTruth(seed), targeting: make(map[string]campaignTruth)}
	wd.users = make([]string, population)
	for i := range wd.users {
		wd.users[i] = fmt.Sprintf("user-%06d", i)
	}
	for _, a := range attr.DefaultCatalog().BySource(attr.SourcePlatform) {
		wd.attrs = append(wd.attrs, string(a.ID))
	}
	for i := 0; i < likePages; i++ {
		wd.pages = append(wd.pages, fmt.Sprintf("page-%02d", i))
	}
	return wd
}

// truth is the ground-truth population in a pointer-free form: the load
// generator's heap stays a few MB, so its own garbage collections are too
// short to stall the senders it is timing.
type truth struct {
	attrIdx  map[attr.ID]int32 // catalog order
	platform []bool            // by attribute index: platform-sourced?
	off      []int32           // user u holds held[off[u]:off[u+1]], ascending
	held     []int32
	age      []uint8
	female   []bool
}

func newTruth(seed uint64) *truth {
	catalog := attr.DefaultCatalog()
	t := &truth{attrIdx: make(map[attr.ID]int32, catalog.Len())}
	for i, a := range catalog.All() {
		t.attrIdx[a.ID] = int32(i)
		t.platform = append(t.platform, a.Source == attr.SourcePlatform)
	}
	// The same generator call the daemons make at boot (bootShard).
	cfg := popgen.DefaultConfig()
	cfg.Users = population
	cfg.Seed = seed
	cfg.Catalog = catalog
	popgen.Each(cfg, func(p *profile.Profile) {
		t.off = append(t.off, int32(len(t.held)))
		start := len(t.held)
		for _, id := range p.Attrs() {
			t.held = append(t.held, t.attrIdx[id])
		}
		sort.Slice(t.held[start:], func(i, j int) bool { return t.held[start+i] < t.held[start+j] })
		t.age = append(t.age, uint8(p.AgeYrs))
		t.female = append(t.female, p.Sex == "female")
	})
	t.off = append(t.off, int32(len(t.held)))
	return t
}

// platformPairs counts the (user, platform attribute) pairs the first n
// users hold: what a complete reveal of that cohort would show.
func (t *truth) platformPairs(n int) int {
	pairs := 0
	for _, a := range t.held[:t.off[n]] {
		if t.platform[a] {
			pairs++
		}
	}
	return pairs
}

// subject is one ground-truth user as targeting expressions see it. The
// seeded campaigns use attr(), age() and gender() only; categorical values
// and regions are not kept.
type subject struct {
	t *truth
	u int32
}

func (s subject) HasAttr(id attr.ID) bool {
	a, ok := s.t.attrIdx[id]
	if !ok {
		return false
	}
	held := s.t.held[s.t.off[s.u]:s.t.off[s.u+1]]
	i := sort.Search(len(held), func(i int) bool { return held[i] >= a })
	return i < len(held) && held[i] == a
}
func (s subject) AttrValue(attr.ID) (string, bool) { return "", false }
func (s subject) Age() int                         { return int(s.t.age[s.u]) }
func (s subject) Country() string                  { return "US" }
func (s subject) Region() string                   { return "" }
func (s subject) Gender() string {
	if s.t.female[s.u] {
		return "female"
	}
	return "male"
}

// resetSeeded forgets what an earlier set-up created, so a repeated set-up
// starts from the same empty state the fresh daemons do.
func (wd *world) resetSeeded() {
	wd.pixel, wd.base, wd.spare = "", nil, nil
	wd.targeting = make(map[string]campaignTruth)
}

// cohort is how many users (numbers 0..cohort-1) issue user ops.
func (wd *world) cohort() int {
	if wd.w.Treads {
		return wd.w.Cohort
	}
	return population
}

// generate produces the run's fixed op sequence. A pause needs a campaign
// that some earlier create has finished making; with C requests in flight,
// keeping the virtual queue of created-not-paused campaigns above C (and
// seeding C+1 spares) guarantees one is always there, so no pause can fail
// or wait.
func (wd *world) generate(seed uint64, n, clients int) []op {
	rng := rand.New(rand.NewPCG(seed, 0x6f7073))
	total := wd.w.mixTotal()
	depth := clients + 1
	ops := make([]op, n)
	for i := range ops {
		r, k := rng.IntN(total), opKind(0)
		for r >= wd.w.Mix[k] {
			r -= wd.w.Mix[k]
			k++
		}
		if k == opPause && depth <= clients {
			k = opCreate
		}
		o := op{kind: k, user: int32(rng.IntN(wd.cohort()))}
		switch k {
		case opLike:
			o.a = int32(rng.IntN(len(wd.pages)))
		case opReach, opCreate:
			o.a, o.b = int32(rng.IntN(len(wd.attrs))), int32(rng.IntN(len(wd.attrs)))
		case opReport:
			o.a = int32(rng.IntN(baseCampaigns))
		}
		switch k {
		case opCreate:
			depth++
		case opPause:
			depth--
		}
		ops[i] = o
	}
	return ops
}

// ledger is one sender's record of what the platform acknowledged.
type ledger struct {
	perUser     map[int32]int // acked impressions by user number
	impressions int
	slots       int
	falseShown  int               // impressions the ground truth forbids
	revealed    map[[2]int32]bool // (user, attribute index) pairs shown, Treads only
}

func newLedger() *ledger {
	return &ledger{perUser: make(map[int32]int), revealed: make(map[[2]int32]bool)}
}

func (l *ledger) merge(o *ledger) {
	for u, n := range o.perUser {
		l.perUser[u] += n
	}
	l.impressions += o.impressions
	l.slots += o.slots
	l.falseShown += o.falseShown
	for k := range o.revealed {
		l.revealed[k] = true
	}
}

// target sends ops to one base URL over keep-alive connections.
type target struct {
	base string
	hc   *http.Client
	wd   *world
	// rec, when set, makes every request the root span of a trace and
	// stamps it so the in-process stack's shims can continue it.
	rec     *recorder
	nextReq atomic.Int64
	// created numbers the campaigns this target creates: each gets its own
	// headline, which is also what the traced run knows the request by.
	created atomic.Int64
}

func newTarget(base string, wd *world, conns int) *target {
	return &target{base: base, wd: wd, hc: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
}

func (t *target) close() { t.hc.CloseIdleConnections() }

// roundTrip issues one request and reads the whole response. Advertiser
// routes carry the tenant key; user routes are keyless at the gateway.
// traceKey is the argument a traced run recognises the request by at seams
// that carry no context ("" when every seam of the op carries one).
func (t *target) roundTrip(method, path string, body []byte, keyed bool, traceKey string) ([]byte, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rdr)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if keyed {
		req.Header.Set("X-API-Key", apiKey)
	}
	if t.rec != nil {
		f := t.rec.enterRoot("client", t.nextReq.Add(1), traceKey)
		f.stamp(req.Header)
		defer f.exit()
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs of strings and numbers always encode
	}
	return raw
}

// do executes one op, records what was acknowledged in led, and returns the
// response size. An impression the ground truth forbids is counted, not
// failed: it is an output-check violation reported on its own.
func (t *target) do(o op, led *ledger) (int, error) {
	wd := t.wd
	uid := wd.users[o.user]
	switch o.kind {
	case opBrowse:
		raw, err := t.roundTrip("POST", fmt.Sprintf("/api/v1/users/%s/browse?slots=%d", uid, wd.w.Slots), nil, false, "")
		if err != nil {
			return 0, err
		}
		var imps []struct {
			CampaignID string `json:"campaign_id"`
		}
		if err := json.Unmarshal(raw, &imps); err != nil {
			return 0, fmt.Errorf("browse %s: %w", uid, err)
		}
		led.slots += wd.w.Slots
		led.impressions += len(imps)
		led.perUser[o.user] += len(imps)
		for _, imp := range imps {
			wd.judge(o.user, imp.CampaignID, led)
		}
		return len(raw), nil
	case opLike:
		raw, err := t.roundTrip("POST", "/api/v1/users/"+uid+"/likes", mustJSON(httpapi.LikeRequest{PageID: wd.pages[o.a]}), false, uid)
		return len(raw), err
	case opVisit:
		raw, err := t.roundTrip("GET", "/pixel/"+wd.pixel+"?uid="+uid, nil, false, uid)
		return len(raw), err
	case opPrefs:
		raw, err := t.roundTrip("GET", "/api/v1/users/"+uid+"/adpreferences", nil, false, uid)
		return len(raw), err
	case opReach:
		spec := httpapi.SpecWire{Expr: "attr(" + wd.attrs[o.a] + ") AND attr(" + wd.attrs[o.b] + ")"}
		raw, err := t.roundTrip("POST", "/api/v1/advertisers/"+advertiser+"/reach", mustJSON(httpapi.ReachRequest{Spec: spec}), true, "")
		return len(raw), err
	case opReport:
		raw, err := t.roundTrip("GET", "/api/v1/advertisers/"+advertiser+"/campaigns/"+wd.base[o.a]+"/report", nil, true, "")
		return len(raw), err
	case opCreate:
		id, n, err := t.createCampaign("attr("+wd.attrs[o.a]+")", nil, 1, 0)
		if err != nil {
			return 0, err
		}
		wd.mu.Lock()
		wd.spare = append(wd.spare, id)
		wd.mu.Unlock()
		return n, nil
	case opPause:
		wd.mu.Lock()
		if len(wd.spare) == 0 {
			wd.mu.Unlock()
			return 0, fmt.Errorf("pause: no created campaign to pause (generator invariant broken)")
		}
		id := wd.spare[0]
		wd.spare = wd.spare[1:]
		wd.mu.Unlock()
		raw, err := t.roundTrip("POST", "/api/v1/advertisers/"+advertiser+"/campaigns/"+id+"/pause", nil, true, id)
		return len(raw), err
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// judge checks one returned impression against the ground truth.
func (wd *world) judge(user int32, campaign string, led *ledger) {
	c, known := wd.targeting[campaign]
	if !known || !c.expr.Match(subject{wd.truth, user}) || (wd.w.Treads && int(user) >= wd.w.Cohort) {
		led.falseShown++
		return
	}
	if c.attr >= 0 {
		led.revealed[[2]int32{user, c.attr}] = true
	}
}

func (t *target) createCampaign(expr string, includeAll []string, bidUSD float64, freqCap int) (string, int, error) {
	headline := fmt.Sprintf("bench-%d", t.created.Add(1))
	req := httpapi.CreateCampaignRequest{
		Spec:         httpapi.SpecWire{IncludeAll: includeAll, Expr: expr},
		BidCapUSD:    bidUSD,
		Creative:     httpapi.CreativeWire{Headline: headline, Body: "targeting " + expr},
		FrequencyCap: freqCap,
	}
	raw, err := t.roundTrip("POST", "/api/v1/advertisers/"+advertiser+"/campaigns", mustJSON(req), true, headline)
	if err != nil {
		return "", 0, err
	}
	var resp httpapi.CreateCampaignResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return "", 0, fmt.Errorf("create campaign: %w", err)
	}
	return resp.CampaignID, len(raw), nil
}

// broadSpecs are the 16 seeded campaigns of the user and advertiser
// workloads: wide expressions so most slots have several bidders.
func (wd *world) broadSpecs() []string {
	specs := []string{"", "age(18, 39)", "age(40, 80)", "gender(female)", "gender(male)", "age(25, 54) AND gender(female)"}
	for i := 0; len(specs) < baseCampaigns; i++ {
		specs = append(specs, "attr("+wd.attrs[i]+")")
	}
	return specs
}

// seed creates, through the public API, the state the workload runs
// against. The platform processes are fresh, so campaign IDs are whatever
// the platform hands back.
func (t *target) seed(ctx context.Context, clients int) error {
	wd := t.wd
	c := &httpapi.Client{BaseURL: t.base, HTTPClient: t.hc, APIKey: apiKey}
	if err := c.RegisterAdvertiser(ctx, advertiser); err != nil {
		return fmt.Errorf("seeding advertiser: %w", err)
	}
	px, err := c.IssuePixel(ctx, advertiser)
	if err != nil {
		return fmt.Errorf("seeding pixel: %w", err)
	}
	wd.pixel = px

	add := func(expr string, includeAll []string, bid float64, freqCap int, tread int32) (string, error) {
		id, _, err := t.createCampaign(expr, includeAll, bid, freqCap)
		if err != nil {
			return "", fmt.Errorf("seeding campaign %q: %w", expr, err)
		}
		parsed := attr.Expr(attr.MatchAll{})
		if expr != "" {
			if parsed, err = attr.Parse(expr); err != nil {
				return "", err
			}
		}
		wd.targeting[id] = campaignTruth{expr: parsed, attr: tread}
		return id, nil
	}

	if !wd.w.Treads {
		for i, spec := range wd.broadSpecs() {
			id, err := add(spec, nil, 2+0.5*float64(i), uncapped, -1)
			if err != nil {
				return err
			}
			wd.base = append(wd.base, id)
		}
		for i := 0; i < clients+1 && wd.w.Mix[opPause] > 0; i++ {
			id, err := add("attr("+wd.attrs[i]+")", nil, 1, 0, -1)
			if err != nil {
				return err
			}
			wd.spare = append(wd.spare, id)
		}
		return nil
	}

	// The transparency provider: an engagement audience over its page, one
	// Tread per platform attribute narrowed to that audience, then the
	// cohort opts in by liking the page.
	aud, err := c.CreateEngagementAudience(ctx, advertiser, httpapi.CreateEngagementAudienceRequest{Name: "opted-in", PageID: optInPage})
	if err != nil {
		return fmt.Errorf("seeding opt-in audience: %w", err)
	}
	for i, a := range wd.attrs {
		id, err := add("attr("+a+")", []string{aud}, 10, 1, int32(i))
		if err != nil {
			return err
		}
		wd.base = append(wd.base, id)
	}
	// Opt-ins are independent users: issued from every client at once, the
	// shards' group commit batches them.
	return parallelDo(wd.w.Cohort, clients, func(i int) error {
		_, err := t.roundTrip("POST", "/api/v1/users/"+wd.users[i]+"/likes", mustJSON(httpapi.LikeRequest{PageID: optInPage}), false, "")
		return err
	})
}

// parallelDo runs fn(0..n-1) on the given number of goroutines and returns
// the first error.
func parallelDo(n, workers int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
