package billing

import (
	"strings"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/money"
)

func TestEmptyReport(t *testing.T) {
	l := NewLedger()
	r := l.Report("nope")
	if r.Impressions != 0 || r.Reach != 0 || r.Spend != 0 {
		t.Fatalf("empty report = %+v", r)
	}
	if l.TrueSpend("nope") != 0 || l.TrueReach("nope") != 0 {
		t.Fatal("true views of unknown campaign nonzero")
	}
}

func TestSmallAudienceNotInvoiced(t *testing.T) {
	// The paper: "The above ads had zero cost since too few users were
	// reached."
	l := NewLedger()
	price := money.FromDollars(0.01)
	l.RecordImpression("c1", 0, price)
	l.RecordImpression("c1", 1, price)
	r := l.Report("c1")
	if r.Spend != 0 {
		t.Fatalf("two-user campaign invoiced %v, want $0", r.Spend)
	}
	if r.Reach != 0 {
		t.Fatalf("two-user campaign reported reach %d, want 0 (suppressed)", r.Reach)
	}
	if r.Impressions != 2 {
		t.Fatalf("impressions = %d", r.Impressions)
	}
	if l.TrueSpend("c1") != price.MulInt(2) {
		t.Fatalf("TrueSpend = %v", l.TrueSpend("c1"))
	}
	if l.TrueReach("c1") != 2 {
		t.Fatalf("TrueReach = %d", l.TrueReach("c1"))
	}
}

func TestLargeAudienceInvoicedAndRounded(t *testing.T) {
	l := NewLedger()
	price := money.FromDollars(0.002)
	for i := 0; i < 137; i++ {
		l.RecordImpression("c1", uint32(i), price)
	}
	r := l.Report("c1")
	if r.Spend != price.MulInt(137) {
		t.Fatalf("spend = %v", r.Spend)
	}
	if r.Reach != 130 {
		t.Fatalf("reach = %d, want 130", r.Reach)
	}
	if r.Impressions != 137 {
		t.Fatalf("impressions = %d", r.Impressions)
	}
}

func TestRepeatImpressionsCountOnceForReach(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 5; i++ {
		l.RecordImpression("c1", 1, money.FromDollars(0.002))
	}
	if l.TrueReach("c1") != 1 {
		t.Fatalf("TrueReach = %d", l.TrueReach("c1"))
	}
	if r := l.Report("c1"); r.Impressions != 5 {
		t.Fatalf("impressions = %d", r.Impressions)
	}
}

func TestZeroThresholdAblationExposesExactCounts(t *testing.T) {
	l := NewLedger()
	l.SetBillableThreshold(0)
	l.RecordImpression("c1", 1, money.FromDollars(0.002))
	r := l.Report("c1")
	if r.Reach != 1 {
		t.Fatalf("ablation reach = %d, want exact 1", r.Reach)
	}
	if r.Spend != money.FromDollars(0.002) {
		t.Fatalf("ablation spend = %v", r.Spend)
	}
}

func TestTotalInvoiced(t *testing.T) {
	l := NewLedger()
	price := money.FromDollars(0.002)
	// c-big crosses the threshold; c-small does not.
	for i := 0; i < 25; i++ {
		l.RecordImpression("c-big", uint32(i), price)
	}
	l.RecordImpression("c-small", 0, price)
	for id, want := range map[string]money.Micros{"c-big": price.MulInt(25), "c-small": 0, "c-none": 0} {
		if got := l.Report(id).Spend; got != want {
			t.Fatalf("%s invoiced %v, want %v", id, got, want)
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{CampaignID: "c1", Impressions: 3, Reach: 0, Spend: money.FromDollars(0.006)}
	s := r.String()
	if !strings.Contains(s, "c1") || !strings.Contains(s, "$0.006") {
		t.Fatalf("Report.String() = %q", s)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.RecordImpression("c1", uint32(g*200+i), money.Micro)
				_ = l.Report("c1")
			}
		}(g)
	}
	wg.Wait()
	if l.TrueReach("c1") != 1600 {
		t.Fatalf("TrueReach = %d, want 1600", l.TrueReach("c1"))
	}
	if l.Report("c1").Spend != 1600 {
		t.Fatalf("Spend = %v", l.Report("c1").Spend)
	}
}
