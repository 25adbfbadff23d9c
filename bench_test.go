package treads

// One benchmark per experiment in docs/DESIGN.md's per-experiment index. Each
// bench regenerates its table/figure through the same code path as the
// cmd/ binaries (internal/experiments) and reports the headline metric via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the paper's
// numbers alongside the harness cost.

import (
	"testing"

	"github.com/treads-project/treads/internal/experiments"
)

// BenchmarkF1CreativeEncodeDecode regenerates Figure 1: the explicit and
// obfuscated creatives for the net-worth Tread, round-tripped through
// their decoders.
func BenchmarkF1CreativeEncodeDecode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.F1Figure1(2018)
		if err != nil {
			b.Fatal(err)
		}
		if !r.DecodeOK || !r.ExplicitOK {
			b.Fatal("figure 1 round trip failed")
		}
	}
}

// BenchmarkE1Validation regenerates the §3.1 validation: 507 partner
// Treads + control to the two authors; 11 and 0 attributes revealed.
func BenchmarkE1Validation(b *testing.B) {
	var last experiments.E1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.E1Validation(2018)
		if err != nil {
			b.Fatal(err)
		}
		if r.RevealedA != 11 || r.RevealedB != 0 {
			b.Fatalf("validation shape broken: %+v", r)
		}
		last = r
	}
	b.ReportMetric(float64(last.RevealedA), "attrs-revealed-A")
	b.ReportMetric(float64(last.TreadsDeployed), "treads")
}

// BenchmarkE2CostPerAttribute regenerates the cost table: $0.002/attr at
// $2 CPM, $0.01 at $10 CPM, $0 for absent attributes.
func BenchmarkE2CostPerAttribute(b *testing.B) {
	var rows []experiments.E2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E2Cost(7, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MeasuredPerAttrUSD*1000, "mUSD/attr@$2CPM")
	b.ReportMetric(rows[1].MeasuredPerAttrUSD*1000, "mUSD/attr@$10CPM")
}

// BenchmarkE3ScaleNonBinary regenerates the scale table: log2(m)+1 Treads
// vs m, one paid impression per user for one-per-value.
func BenchmarkE3ScaleNonBinary(b *testing.B) {
	var rows []experiments.E3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E3Scale(7, []int{4, 16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.BitSplitTreads), "treads-bitsplit@m=256")
	b.ReportMetric(float64(last.OnePerValuePaidImp), "paid-imp-1/value")
}

// BenchmarkE4PrivacyAnalysis regenerates the privacy table: attack
// accuracy equals the base rate; thresholded probes leak nothing.
func BenchmarkE4PrivacyAnalysis(b *testing.B) {
	var rows []experiments.E4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E4Privacy(7, []int{50, 200}, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.AttackAccuracy-last.BaseRate, "attack-minus-base")
	b.ReportMetric(float64(last.ProbeLeaks), "probe-leaks")
}

// BenchmarkE5CompletenessGap regenerates the completeness table: Treads
// reveal ~100% of attributes, the preferences page 0% of partner data.
func BenchmarkE5CompletenessGap(b *testing.B) {
	var r experiments.E5Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.E5Completeness(7, 40)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TreadsCoverage, "treads-coverage")
	b.ReportMetric(r.PrefsPartnerCoverage, "prefs-partner-coverage")
}

// BenchmarkE6ToSCompliance regenerates the ToS table: explicit rejected,
// obfuscated and landing-page approved.
func BenchmarkE6ToSCompliance(b *testing.B) {
	var rows []experiments.E6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E6ToS(7, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Rejected), "explicit-rejected")
	b.ReportMetric(float64(rows[1].Approved), "obfuscated-approved")
}

// BenchmarkE7BidDelivery regenerates the bid sweep: win probability and
// delivery rate rise with the bid cap; 5x the default wins nearly all.
func BenchmarkE7BidDelivery(b *testing.B) {
	var rows []experiments.E7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E7BidSweep(7, []float64{2, 10}, 60, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].DeliveryRate, "delivery@$2")
	b.ReportMetric(rows[1].DeliveryRate, "delivery@$10")
}

// BenchmarkE8CrowdsourcedResilience regenerates the shutdown-evasion
// sweep: replication keeps attribute coverage high under account bans.
func BenchmarkE8CrowdsourcedResilience(b *testing.B) {
	var rows []experiments.E8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E8Crowdsourcing(7, []int{50}, []int{1, 3}, []float64{0.3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Coverage, "coverage-r1@30%bans")
	b.ReportMetric(rows[1].Coverage, "coverage-r3@30%bans")
}

// BenchmarkE9CorrelationBaseline regenerates the related-work comparison:
// correlation recall grows with panel size; Treads needs one user.
func BenchmarkE9CorrelationBaseline(b *testing.B) {
	var rows []experiments.E9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E9CorrelationBaseline(7, []int{10, 100}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Recall, "recall@10")
	b.ReportMetric(rows[1].Recall, "recall@100")
	b.ReportMetric(rows[0].TreadsRecall, "treads-recall@1user")
}

// BenchmarkE10OptInPaths regenerates the opt-in audit over the live HTTP
// API (PII-hash path and anonymous-pixel path).
func BenchmarkE10OptInPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.E10OptInPaths(7)
		if err != nil {
			b.Fatal(err)
		}
		if !r.PIIUserRevealed || !r.PixelUserRevealed {
			b.Fatal("opt-in path broken")
		}
	}
}

// BenchmarkE11IntentTransparency regenerates the advertiser-driven
// transparency audit (§4): honest, deceptive, and PII-list advertisers.
func BenchmarkE11IntentTransparency(b *testing.B) {
	var rows []experiments.E11Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E11IntentTransparency(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	concealed := 0
	for _, r := range rows {
		concealed += len(r.UndisclosedAttrs)
	}
	b.ReportMetric(float64(concealed), "concealed-attrs-caught")
}

// BenchmarkE12RevealLatency regenerates the reveal-latency sweep: days of
// normal browsing until mean coverage crosses 95%.
func BenchmarkE12RevealLatency(b *testing.B) {
	var rows []experiments.E12Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E12RevealLatency(7, 15, 10, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].DaysTo95), "days-to-95%-casual")
	b.ReportMetric(rows[2].FinalCoverage, "final-coverage-heavy")
}
