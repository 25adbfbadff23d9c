// Command treads-extension is the user-side "browser extension" as a real
// binary: it fetches a user's feed from a running platform server (see
// cmd/adplatformd), decodes every Tread it finds — explicit, obfuscated
// (with a codebook file), landing-page, or steganographic — and prints the
// profile the advertising platform was revealed to hold.
//
//	treads-extension -server http://localhost:8080 -user user-000001 \
//	    [-provider tp] [-codebook codebook.json] [-follow-links]
//
// The codebook file is the mapping the provider shares at opt-in (§3.1): a
// JSON object from each code, as the ad shows it ("2,830,120"), to the
// payload token it stands for ("A:<attribute ID>", "N:<attribute ID>",
// "V:<attribute ID>=<value>", "C" for a control ad, ...), e.g.
//
//	{"2,830,120": "A:platform.hobbies_and_activities.salsa_dance", "1,047,311": "C"}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/core"
	"github.com/treads-project/treads/internal/httpapi"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "platform server base URL")
	user := flag.String("user", "", "platform user ID (required)")
	provider := flag.String("provider", "", "only decode ads from this advertiser (empty = all)")
	codebookPath := flag.String("codebook", "", "JSON codebook file from the provider (code -> token)")
	follow := flag.Bool("follow-links", false, "decode landing-page Treads (requires leaving the platform)")
	flag.Parse()

	if *user == "" {
		fmt.Fprintln(os.Stderr, "treads-extension: -user is required")
		flag.Usage()
		os.Exit(2)
	}

	var cb *core.Codebook
	if *codebookPath != "" {
		raw, err := os.ReadFile(*codebookPath)
		if err != nil {
			fatal("reading codebook: %v", err)
		}
		var entries map[string]string
		if err := json.Unmarshal(raw, &entries); err != nil {
			fatal("parsing codebook: %v", err)
		}
		cb, err = core.CodebookFromEntries(entries)
		if err != nil {
			fatal("loading codebook: %v", err)
		}
	}

	api := httpapi.NewClient(*server)
	wireFeed, err := api.Feed(context.Background(), *user)
	if err != nil {
		fatal("fetching feed: %v", err)
	}
	feed := make([]ad.Impression, 0, len(wireFeed))
	for _, w := range wireFeed {
		feed = append(feed, w.ToImpression())
	}

	ext := &core.Extension{ProviderName: *provider, Codebook: cb, FollowLinks: *follow}
	catalog := attr.DefaultCatalog()
	rev := ext.Scan(feed, catalog)

	fmt.Printf("feed: %d impressions for %s\n", len(feed), *user)
	fmt.Printf("control ad seen: %v\n", rev.ControlSeen)
	if len(rev.Attrs) > 0 {
		fmt.Printf("\nattributes the platform holds for you (%d):\n", len(rev.Attrs))
		for _, id := range rev.Attrs {
			name := string(id)
			src := ""
			if a := catalog.Get(id); a != nil {
				name = a.Name
				src = " [" + a.Source.String()
				if a.Broker != "" {
					src += ": " + a.Broker
				}
				src += "]"
			}
			fmt.Printf("  - %s%s\n", name, src)
		}
	}
	if len(rev.Values) > 0 {
		fmt.Printf("\nattribute values:\n")
		for id, v := range rev.Values {
			fmt.Printf("  - %s = %q\n", id, v)
		}
	}
	if len(rev.AbsentAttrs) > 0 {
		fmt.Printf("\nattributes revealed as false-or-missing (%d):\n", len(rev.AbsentAttrs))
		for _, id := range rev.AbsentAttrs {
			fmt.Printf("  - %s\n", id)
		}
	}
	if len(rev.PIIHashes) > 0 {
		fmt.Printf("\nPII the platform holds (hashed):\n")
		for _, h := range rev.PIIHashes {
			fmt.Printf("  - %s\n", h)
		}
	}
	if len(rev.Affinities) > 0 {
		fmt.Printf("\nkeyword audiences you are in:\n")
		for _, a := range rev.Affinities {
			fmt.Printf("  - %s\n", a)
		}
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "treads-extension: "+format+"\n", args...)
	os.Exit(1)
}
