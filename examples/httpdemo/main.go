// Httpdemo runs the whole Treads flow over the platform's HTTP API: the
// provider drives the advertiser REST endpoints through the client SDK,
// and the user's anonymous opt-in happens by loading the provider
// website's tracking pixel — a real GET for a 1x1 GIF against the
// platform's pixel endpoint.
//
//	go run ./examples/httpdemo
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"github.com/treads-project/treads"
)

func main() {
	ctx := context.Background()

	// The platform, served over HTTP on a loopback listener.
	p := treads.NewPlatform(treads.PlatformConfig{Seed: 11})
	carol := treads.NewProfile("carol")
	carol.SetCountry("US")
	carol.AgeYrs = 41
	netWorth := p.Catalog().Search("Net worth: over $2,000,000")[0]
	carol.SetAttr(netWorth.ID)
	if err := p.AddUser(carol); err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(treads.NewServer(p))
	defer srv.Close()
	fmt.Printf("platform API listening at %s\n", srv.URL)

	api := treads.NewClient(srv.URL)

	// The transparency provider registers and provisions its pixel purely
	// over HTTP.
	if err := api.RegisterAdvertiser(ctx, "http-tp"); err != nil {
		log.Fatal(err)
	}
	pixelID, err := api.IssuePixel(ctx, "http-tp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provider embedded pixel %s on its opt-in page\n", pixelID)

	// Carol visits the provider's website: her browser loads the pixel.
	// The provider's site never learns who she is; the platform does.
	gif, err := api.FirePixel(ctx, pixelID, "carol")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carol's browser fetched the pixel (%d-byte GIF) — she is opted in, anonymously\n", len(gif))

	// The provider targets pixel visitors who have the net-worth band,
	// with a landing-page Tread (passes ad review: the assertion lives on
	// the provider's own site, not in the creative).
	audienceID, err := api.CreateWebsiteAudience(ctx, "http-tp",
		treads.CreateWebsiteAudienceRequest{Name: "opt-ins", PixelID: pixelID})
	if err != nil {
		log.Fatal(err)
	}
	campaignID, err := api.CreateCampaign(ctx, "http-tp", treads.CreateCampaignRequest{
		Spec: treads.SpecWire{
			Include: []string{audienceID},
			Expr:    fmt.Sprintf("attr(%s)", netWorth.ID),
		},
		BidCapUSD: 10,
		Creative: treads.CreativeWire{
			Headline:    "Curious what advertisers can target?",
			Body:        "Click through to see one thing this ad platform lets advertisers use.",
			LandingURL:  "https://transparency.example/t/1",
			LandingBody: fmt.Sprintf("You are in the audience: %q.", netWorth.Name),
		},
		FrequencyCap: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed Tread campaign %s\n", campaignID)

	// Carol browses; her feed comes back over HTTP.
	imps, err := api.Browse(ctx, "carol", 10)
	if err != nil {
		log.Fatal(err)
	}
	for _, imp := range imps {
		fmt.Printf("carol saw: %q — %q\n", imp.Creative.Headline, imp.Creative.Body)
		fmt.Printf("  landing page: %s\n  landing body:  %q\n",
			imp.Creative.LandingURL, imp.Creative.LandingBody)
	}
	if len(imps) == 0 {
		log.Fatal("no impressions delivered — unexpected for a $10 bid")
	}

	// The platform's own explanation for the ad (reveals at most one
	// attribute; compare with what the Tread's landing page told Carol).
	ex, err := api.Explain(ctx, "carol", imps[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform's explanation: %q\n", ex.Text)

	// The provider's entire observable: the thresholded report.
	rep, err := api.Report(ctx, "http-tp", campaignID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provider's report: impressions=%d reach=%d spend=$%.4f (no per-user signal)\n",
		rep.Impressions, rep.Reach, rep.SpendUSD)
}
