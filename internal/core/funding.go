package core

import (
	"github.com/treads-project/treads/internal/money"
)

// FundingModel explores the funding question the paper defers ("This cost
// could be paid for by the transparency provider itself (e.g., via
// donations). Alternately, users opting-in could pay the transparency
// provider a nominal fee (the cost of their own impressions), making the
// transparency provider's operations both scalable and sustainable. We
// leave a full exploration of the funding model to future work.", §3.1).
type FundingModel struct {
	// Cost is the underlying impression-cost model.
	Cost CostModel
	// OverheadPerUser is the provider's non-ad cost per opted-in user
	// (infrastructure, support); zero for the paper's idealization.
	OverheadPerUser money.Micros
}

// NewFundingModel returns a model over the given cost model.
func NewFundingModel(cost CostModel, overheadPerUser money.Micros) FundingModel {
	return FundingModel{Cost: cost, OverheadPerUser: overheadPerUser}
}

// BreakEvenFee is the per-user opt-in fee that exactly covers a user's own
// impressions plus overhead — the paper's "nominal fee (the cost of their
// own impressions)". For the paper's 50-attribute example at $2 CPM with
// no overhead this is $0.10.
func (f FundingModel) BreakEvenFee(attrsPerUser int) money.Micros {
	return f.Cost.PerUser(attrsPerUser) + f.OverheadPerUser
}

// UsersServable is how many users of the given attribute richness a
// donation pool funds (donation-funded mode). Zero-cost users (no
// attributes, no overhead) make the pool go infinitely far; that case
// returns -1 to mean "unbounded".
func (f FundingModel) UsersServable(donationPool money.Micros, attrsPerUser int) int {
	perUser := f.BreakEvenFee(attrsPerUser)
	if perUser <= 0 {
		return -1
	}
	if donationPool <= 0 {
		return 0
	}
	return int(donationPool / perUser)
}

// Surplus is the provider's balance after serving the population under a
// mixed model: donations plus a flat fee per opted-in user. Negative means
// the deployment is not sustainable at that fee.
func (f FundingModel) Surplus(donations, feePerUser money.Micros, attrCounts []int) money.Micros {
	income := donations + feePerUser.MulInt(len(attrCounts))
	var cost money.Micros
	for _, n := range attrCounts {
		cost += f.BreakEvenFee(n)
	}
	return income - cost
}

// SustainableFee is the smallest flat per-user fee (in whole micro-dollar
// steps of the mean cost) under which the deployment breaks even with the
// given donations. It returns 0 when donations alone suffice.
func (f FundingModel) SustainableFee(donations money.Micros, attrCounts []int) money.Micros {
	if len(attrCounts) == 0 {
		return 0
	}
	var cost money.Micros
	for _, n := range attrCounts {
		cost += f.BreakEvenFee(n)
	}
	deficit := cost - donations
	if deficit <= 0 {
		return 0
	}
	users := money.Micros(len(attrCounts))
	// Ceiling division: the fee must cover the deficit.
	return (deficit + users - 1) / users
}
