package treads_test

import (
	"context"
	"fmt"
	"log"

	"github.com/treads-project/treads"
)

// ExampleNewProvider runs the whole Treads mechanism on one user: opt in,
// deploy, browse, decode.
func ExampleNewProvider() {
	p := treads.NewPlatform(treads.PlatformConfig{
		Seed:   1,
		Market: &treads.Market{BaseCPM: treads.Dollars(2), Floor: treads.Dollars(0.10)},
	})
	u := treads.NewProfile("alice")
	u.SetCountry("US")
	u.AgeYrs = 34
	netWorth := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	u.SetAttr(netWorth)
	if err := p.AddUser(u); err != nil {
		log.Fatal(err)
	}

	tp, err := treads.NewProvider(p, treads.ProviderConfig{
		Name: "tp", Mode: treads.RevealObfuscated, CodebookSeed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	p.LikePage("alice", tp.OptInPage())
	if _, err := tp.DeployAttrTreads([]treads.AttrID{netWorth}); err != nil {
		log.Fatal(err)
	}
	p.BrowseFeed("alice", 10)

	ext := &treads.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	rev := ext.Scan(p.Feed("alice"), p.Catalog())
	fmt.Println("control seen:", rev.ControlSeen)
	fmt.Println("revealed:", p.Catalog().Get(rev.Attrs[0]).Name)
	// Output:
	// control seen: true
	// revealed: Net worth: over $2,000,000
}

// ExampleNewCostModel reproduces the paper's §3.1 cost arithmetic.
func ExampleNewCostModel() {
	m := treads.NewCostModel(treads.Dollars(2))
	fmt.Println("per attribute:", m.PerAttribute())
	fmt.Println("50-attribute user:", m.PerUser(50))
	// Output:
	// per attribute: $0.002
	// 50-attribute user: $0.1
}

// ExampleParseExpr shows the targeting-expression syntax.
func ExampleParseExpr() {
	e, err := treads.ParseExpr("attr(platform.music.jazz) AND age(30, 65)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(e)
	// Output:
	// attr(platform.music.jazz) AND age(30, 65)
}

// ExampleBitsNeeded shows the §3.1 scale result: log2(m) Treads for an
// m-valued attribute.
func ExampleBitsNeeded() {
	for _, m := range []int{2, 16, 1024} {
		fmt.Printf("m=%d needs %d bit-Treads\n", m, treads.BitsNeeded(m))
	}
	// Output:
	// m=2 needs 1 bit-Treads
	// m=16 needs 4 bit-Treads
	// m=1024 needs 10 bit-Treads
}

// ExampleShardAttributes shows crowdsourced sharding (§4).
func ExampleShardAttributes() {
	attrs := []treads.AttrID{"a.b.c", "d.e.f", "g.h.i", "j.k.l"}
	shards, err := treads.ShardAttributes(attrs, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range shards {
		fmt.Println(s.Account, len(s.Attrs))
	}
	fmt.Println("coverage:", treads.Coverage(shards, nil))
	// Output:
	// tp-shard-000 2
	// tp-shard-001 2
	// coverage: 1
}

// ExampleHashEmail shows the PII normalization contract.
func ExampleHashEmail() {
	a, _ := treads.HashEmail("Alice@Example.com")
	b, _ := treads.HashEmail("  alice@example.com ")
	fmt.Println("normalized equal:", a == b)
	// Output:
	// normalized equal: true
}

// ExamplePlatform_CreateAudience builds a page-engagement audience and
// targets it: the advertiser gets back an audience ID and a rounded reach,
// never the members.
func ExamplePlatform_CreateAudience() {
	p := treads.NewPlatform(treads.PlatformConfig{Seed: 1})
	for i := 0; i < 30; i++ {
		u := treads.NewProfile(treads.UserID(fmt.Sprintf("u%02d", i)))
		if err := p.AddUser(u); err != nil {
			log.Fatal(err)
		}
		if err := p.LikePage(u.ID, "acme-page"); err != nil {
			log.Fatal(err)
		}
	}
	if err := p.RegisterAdvertiser("acme"); err != nil {
		log.Fatal(err)
	}
	fans, err := p.CreateAudience("acme", treads.AudienceDef{Kind: treads.AudienceEngagement, Name: "fans", Page: "acme-page"})
	if err != nil {
		log.Fatal(err)
	}
	reach, err := p.PotentialReach(context.Background(), "acme", treads.Spec{Include: []treads.AudienceID{fans}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fans, "reaches", reach)
	// Output:
	// aud-000001 reaches 30
}

// ExampleNewCluster runs the same end-to-end Treads flow as
// ExampleNewProvider, but on a 4-shard cluster: the user lives on one
// shard, the Treads replicate to all of them, and the reveal is identical.
func ExampleNewCluster() {
	c, err := treads.NewCluster(4, treads.PlatformConfig{
		Seed:   1,
		Market: &treads.Market{BaseCPM: treads.Dollars(2), Floor: treads.Dollars(0.10)},
	}, treads.ClusterOptions{})
	if err != nil {
		log.Fatal(err)
	}
	u := treads.NewProfile("alice")
	u.SetCountry("US")
	u.AgeYrs = 34
	netWorth := c.Catalog().Search("Net worth: over $2,000,000")[0].ID
	u.SetAttr(netWorth)
	if err := c.AddUser(u); err != nil {
		log.Fatal(err)
	}

	tp, err := treads.NewProviderOn(c, treads.ProviderConfig{
		Name: "tp", Mode: treads.RevealObfuscated, CodebookSeed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	c.LikePage("alice", tp.OptInPage())
	if _, err := tp.DeployAttrTreads([]treads.AttrID{netWorth}); err != nil {
		log.Fatal(err)
	}
	c.BrowseFeed("alice", 10)

	ext := &treads.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	rev := ext.Scan(c.Feed("alice"), c.Catalog())
	fmt.Println("control seen:", rev.ControlSeen)
	fmt.Println("revealed:", c.Catalog().Get(rev.Attrs[0]).Name)
	// Output:
	// control seen: true
	// revealed: Net worth: over $2,000,000
}
