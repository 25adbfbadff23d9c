package experiments

import (
	"fmt"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// E11Row audits one advertiser under the §4 "Advertiser-driven
// transparency" regime: ads carry an advertiser-written intent disclosure,
// which users (or regulators) can cross-check against the platform's
// explanation and — with regulator access to the actual targeting spec —
// against the campaign itself.
type E11Row struct {
	Advertiser string
	// IntentExtracted: the user's extension recovered the disclosure.
	IntentExtracted bool
	// PlatformDisclosed is the attribute the platform's explanation
	// surfaced ("" when the platform has nothing to say, e.g. for
	// PII-audiences or partner-only targeting).
	PlatformDisclosed attr.ID
	// CrossCheckOK: the platform explanation is consistent with the
	// advertiser's claim (the user-side verification of §4).
	CrossCheckOK bool
	// UndisclosedAttrs is what the regulator-side audit (claim vs actual
	// targeting expression) found concealed.
	UndisclosedAttrs []attr.ID
	// ExternalDataDisclosed: the intent admitted using an externally
	// acquired list — the case where "an explanation generated by the
	// advertising platform would completely fail to capture the
	// advertiser's intent".
	ExternalDataDisclosed bool
}

// E11IntentTransparency runs three advertisers over one user:
//
//   - "honest-salsa" — the paper's §4 example: intent "experienced
//     professional Salsa dancers", targeting 30+ ∧ salsa, full claim.
//   - "deceptive" — targets salsa ∧ a net-worth band, but claims only
//     salsa. The platform's explanation can't catch it (it never discloses
//     partner attributes); the regulator-side audit does.
//   - "pii-list" — targets a PII audience bought from a broker; the
//     platform explanation is generic, the intent disclosure is the only
//     transparency the user gets.
func E11IntentTransparency(seed uint64) ([]E11Row, error) {
	p := fixedPlatform(seed, false)
	salsa := p.Catalog().Search("Salsa dance")[0].ID
	netWorth := p.Catalog().Search("Net worth: over $2,000,000")[0].ID

	u := profile.New("dora")
	u.SetCountry("US")
	u.AgeYrs = 35
	u.SetAttr(salsa)
	u.SetAttr(netWorth)
	u.SetPII(pii.Record{Emails: []string{"dora@example.com"}})
	if err := p.AddUser(u); err != nil {
		return nil, err
	}

	key, err := pii.HashEmail("dora@example.com")
	if err != nil {
		return nil, err
	}

	type scenario struct {
		name      string
		intent    core.Intent
		spec      audience.Spec
		setupSpec func() (audience.Spec, error)
	}
	scenarios := []scenario{
		{
			name: "honest-salsa",
			intent: core.Intent{
				Description:  "experienced professional Salsa dancers",
				ClaimedAttrs: []attr.ID{salsa},
			},
			spec: audience.Spec{Expr: attr.NewAnd(attr.AgeBetween{Min: 30, Max: 120}, attr.Has{ID: salsa})},
		},
		{
			name: "deceptive",
			intent: core.Intent{
				Description:  "dance enthusiasts",
				ClaimedAttrs: []attr.ID{salsa}, // conceals the net-worth filter
			},
			spec: audience.Spec{Expr: attr.NewAnd(attr.Has{ID: salsa}, attr.Has{ID: netWorth})},
		},
		{
			name: "pii-list",
			intent: core.Intent{
				Description:      "households from the premium-buyers list we licensed",
				UsedExternalData: true,
			},
			setupSpec: func() (audience.Spec, error) {
				audID, err := p.CreateAudience("pii-list", audience.Def{Kind: audience.KindPII, Name: "licensed list", Keys: []pii.MatchKey{key}})
				if err != nil {
					return audience.Spec{}, err
				}
				return audience.Spec{Include: []audience.AudienceID{audID}}, nil
			},
		},
	}

	var rows []E11Row
	for _, sc := range scenarios {
		if err := p.RegisterAdvertiser(sc.name); err != nil {
			return nil, err
		}
		spec := sc.spec
		if sc.setupSpec != nil {
			spec, err = sc.setupSpec()
			if err != nil {
				return nil, err
			}
		}
		creative := core.AttachIntent(ad.Creative{
			Headline: "An ad from " + sc.name,
			Body:     "Our product might interest you.",
		}, sc.intent)
		cid, err := p.CreateCampaign(sc.name, platform.CampaignParams{
			Spec:         spec,
			BidCapCPM:    money.FromDollars(10),
			Creative:     creative,
			FrequencyCap: 1,
		})
		if err != nil {
			return nil, err
		}
		imps, err := p.BrowseFeed("dora", 3)
		if err != nil {
			return nil, err
		}
		row := E11Row{Advertiser: sc.name}
		for _, imp := range imps {
			if imp.CampaignID != cid {
				continue
			}
			got, ok := core.ExtractIntent(imp.Creative)
			row.IntentExtracted = ok
			row.ExternalDataDisclosed = got.UsedExternalData
			expl, err := p.ExplainImpression("dora", imp)
			if err != nil {
				return nil, err
			}
			row.PlatformDisclosed = expl.Attribute
			row.CrossCheckOK = core.CrossCheckExplanations(got, expl) == nil
		}
		// Regulator-side audit against the actual targeting expression.
		if spec.Expr != nil {
			row.UndisclosedAttrs = core.VerifyIntentAgainstTargeting(sc.intent, spec.Expr)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E11Table renders the advertiser-driven transparency audit.
func E11Table(rows []E11Row) *Table {
	t := &Table{
		Title: "E11 (§4): advertiser-driven intent explanations",
		Columns: []string{"advertiser", "intent extracted", "platform disclosed",
			"cross-check ok", "regulator audit", "external data disclosed"},
	}
	for _, r := range rows {
		audit := "clean"
		if len(r.UndisclosedAttrs) > 0 {
			audit = fmt.Sprintf("%d concealed attr(s)", len(r.UndisclosedAttrs))
		}
		plat := string(r.PlatformDisclosed)
		if plat == "" {
			plat = "(generic)"
		}
		t.Rows = append(t.Rows, []string{
			r.Advertiser, yn(r.IntentExtracted), plat,
			yn(r.CrossCheckOK), audit, yn(r.ExternalDataDisclosed),
		})
	}
	t.Notes = append(t.Notes,
		"paper: advertiser explanations complement platform ones, which \"completely fail to capture the advertiser's intent\" for externally sourced PII audiences",
		"the deceptive advertiser passes the user-side cross-check (platform never discloses partner attributes) but fails the regulator-side audit")
	return t
}
