package experiments

import (
	"fmt"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// E3Row compares the two schemes for revealing an m-valued attribute
// (§3.1 "Scale"): one Tread per value (m Treads, 1 paid impression/user)
// vs the bit-split scheme (ceil(log2 m)+1 Treads, ≤ log2(m)+1 paid
// impressions/user).
type E3Row struct {
	M                  int
	OnePerValueTreads  int
	BitSplitTreads     int // incl. the confirmation Tread
	OnePerValuePaidImp int // measured impressions one user paid for
	BitSplitPaidImp    int
	OnePerValueOK      bool // decoded value matched ground truth
	BitSplitOK         bool
}

// E3Scale measures both schemes end to end for synthetic m-valued
// attributes, one opted-in user per run holding a mid-range value.
func E3Scale(seed uint64, ms []int) ([]E3Row, error) {
	var rows []E3Row
	for _, m := range ms {
		row := E3Row{M: m, OnePerValueTreads: m, BitSplitTreads: core.BitsNeeded(m) + 1}
		// Build a catalog containing the synthetic attribute.
		values := make([]string, m)
		for i := range values {
			values[i] = fmt.Sprintf("value-%04d", i)
		}
		synth := attr.Attribute{
			ID: "platform.synthetic.mval", Name: "Synthetic m-valued segment",
			Category: "Synthetic", Source: attr.SourcePlatform,
			Kind: attr.Categorical, Values: values,
		}
		truth := values[m/2]
		for _, scheme := range []string{"value", "bits"} {
			catalog := attr.MustNewCatalog([]attr.Attribute{synth})
			p := platformWithCatalog(seed, catalog)
			u := profile.New("subject")
			u.SetCountry("US")
			u.AgeYrs = 30
			u.SetAttrValue(synth.ID, truth)
			if err := p.AddUser(u); err != nil {
				return nil, err
			}
			tp, err := core.NewProvider(p, core.ProviderConfig{
				Name: "scale-tp", Mode: core.RevealObfuscated, CodebookSeed: seed,
			})
			if err != nil {
				return nil, err
			}
			p.LikePage("subject", tp.OptInPage())
			var dep *core.DeployResult
			if scheme == "value" {
				dep, err = tp.DeployValueTreads(synth.ID)
			} else {
				dep, err = tp.DeployBitSplitTreads(synth.ID)
			}
			if err != nil {
				return nil, err
			}
			if _, err := p.BrowseFeed("subject", len(dep.Campaigns)+10); err != nil {
				return nil, err
			}
			ext := &core.Extension{
				ProviderName: tp.Name(), Codebook: tp.Codebook(),
				BitSplitAttrs: map[attr.ID]bool{synth.ID: true},
			}
			rev := ext.Scan(p.Feed("subject"), p.Catalog())
			paid := 0
			for cid := range dep.Campaigns {
				if r, err := tp.Report(cid); err == nil {
					paid += r.Impressions
				}
			}
			ok := rev.Values[synth.ID] == truth
			if scheme == "value" {
				row.OnePerValuePaidImp = paid
				row.OnePerValueOK = ok
			} else {
				row.BitSplitPaidImp = paid
				row.BitSplitOK = ok
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// platformWithCatalog builds the fixed-market platform over a custom
// catalog.
func platformWithCatalog(seed uint64, catalog *attr.Catalog) *platform.Platform {
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.10)}
	return platform.New(platform.Config{Catalog: catalog, Market: &market, Seed: seed})
}

// E3Table renders the scale comparison.
func E3Table(rows []E3Row) *Table {
	t := &Table{
		Title: "E3 (§3.1 Scale): m-valued attributes — one-per-value vs bit-split",
		Columns: []string{"m", "treads (1/value)", "treads (bits)",
			"paid imp (1/value)", "paid imp (bits)", "decoded ok"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.M),
			fmt.Sprintf("%d", r.OnePerValueTreads),
			fmt.Sprintf("%d", r.BitSplitTreads),
			fmt.Sprintf("%d", r.OnePerValuePaidImp),
			fmt.Sprintf("%d", r.BitSplitPaidImp),
			yn(r.OnePerValueOK && r.BitSplitOK),
		})
	}
	t.Notes = append(t.Notes,
		"paper: log2(m) Treads suffice; one-per-value pays exactly 1 impression per user regardless of m")
	return t
}
