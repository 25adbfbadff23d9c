package core

import (
	"testing"
	"testing/quick"

	"github.com/treads-project/treads/internal/money"
)

func TestBreakEvenFeePaperExample(t *testing.T) {
	f := NewFundingModel(NewCostModel(money.FromDollars(2)), 0)
	// "users opting-in could pay ... the cost of their own impressions":
	// 50 attributes at $2 CPM = $0.10.
	if got := f.BreakEvenFee(50); got != money.FromDollars(0.10) {
		t.Fatalf("BreakEvenFee(50) = %v, want $0.10", got)
	}
	withOverhead := NewFundingModel(NewCostModel(money.FromDollars(2)), money.FromDollars(0.05))
	if got := withOverhead.BreakEvenFee(50); got != money.FromDollars(0.15) {
		t.Fatalf("BreakEvenFee with overhead = %v", got)
	}
}

func TestUsersServable(t *testing.T) {
	f := NewFundingModel(NewCostModel(money.FromDollars(2)), 0)
	// $1000 of donations at $0.10/user funds 10,000 users.
	if got := f.UsersServable(money.FromDollars(1000), 50); got != 10000 {
		t.Fatalf("UsersServable = %d, want 10000", got)
	}
	if got := f.UsersServable(0, 50); got != 0 {
		t.Fatalf("no donations servable = %d", got)
	}
	if got := f.UsersServable(money.FromDollars(1), 0); got != -1 {
		t.Fatalf("zero-cost users servable = %d, want unbounded (-1)", got)
	}
}

func TestSurplus(t *testing.T) {
	f := NewFundingModel(NewCostModel(money.FromDollars(2)), 0)
	counts := []int{50, 50, 50, 50} // 4 users, $0.10 each = $0.40
	// Fee-funded exactly at break-even.
	if s := f.Surplus(0, money.FromDollars(0.10), counts); s != 0 {
		t.Fatalf("break-even surplus = %v", s)
	}
	// Donation-funded with no fee.
	if s := f.Surplus(money.FromDollars(1), 0, counts); s != money.FromDollars(0.60) {
		t.Fatalf("donation surplus = %v", s)
	}
	// Underfunded is negative.
	if s := f.Surplus(0, 0, counts); s >= 0 {
		t.Fatalf("unfunded surplus = %v, want negative", s)
	}
}

func TestSustainableFee(t *testing.T) {
	f := NewFundingModel(NewCostModel(money.FromDollars(2)), 0)
	counts := []int{50, 50, 50, 50}
	// No donations: fee must equal the mean per-user cost.
	fee := f.SustainableFee(0, counts)
	if fee != money.FromDollars(0.10) {
		t.Fatalf("fee = %v, want $0.10", fee)
	}
	// Donations covering half: fee halves.
	fee = f.SustainableFee(money.FromDollars(0.20), counts)
	if fee != money.FromDollars(0.05) {
		t.Fatalf("fee with donations = %v, want $0.05", fee)
	}
	// Donations covering everything: free for users.
	if fee := f.SustainableFee(money.FromDollars(10), counts); fee != 0 {
		t.Fatalf("fully donated fee = %v", fee)
	}
	if fee := f.SustainableFee(0, nil); fee != 0 {
		t.Fatalf("empty population fee = %v", fee)
	}
}

func TestSustainableFeeBreaksEvenProperty(t *testing.T) {
	f := NewFundingModel(NewCostModel(money.FromDollars(2)), money.FromDollars(0.01))
	prop := func(n uint8, d uint16, a uint8) bool {
		users := int(n%20) + 1
		counts := make([]int, users)
		for i := range counts {
			counts[i] = int(a) % 100
		}
		donations := money.Micros(d) * money.Cent
		fee := f.SustainableFee(donations, counts)
		return f.Surplus(donations, fee, counts) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
