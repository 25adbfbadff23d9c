package rpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// recordingGate is a MembershipGate that owns everything except users named
// "stale-…", and records which check each request consulted.
type recordingGate struct {
	mu            sync.Mutex
	reads, writes []string
}

func (g *recordingGate) check(log *[]string, user string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	*log = append(*log, user)
	if strings.HasPrefix(user, "stale-") {
		return errors.New("not the owner of " + user)
	}
	return nil
}

func (g *recordingGate) OwnsUser(user string) error      { return g.check(&g.reads, user) }
func (g *recordingGate) OwnsUserWrite(user string) error { return g.check(&g.writes, user) }
func (g *recordingGate) Ring() RingInfo                  { return RingInfo{} }
func (g *recordingGate) SetRing(RingInfo) error          { return nil }

func (g *recordingGate) take() (reads, writes []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	reads, writes = g.reads, g.writes
	g.reads, g.writes = nil, nil
	return reads, writes
}

// lossyTransport delivers every request and then loses the answer: the
// failure after which resending a write would apply it twice.
type lossyTransport struct {
	base http.RoundTripper
	sent atomic.Int64
}

func (t *lossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.sent.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil, errors.New("connection reset after the request left")
}

const tableUser profile.UserID = "user-000000"

// send is a tableCalls entry: one op sent through Do.
func send[Req, Resp any](op Op[Req, Resp], req Req) func(context.Context, *Client) error {
	return func(ctx context.Context, c *Client) error {
		_, err := Do(ctx, c, op, req)
		return err
	}
}

// tableCalls sends each op of the table through Do, with the request its
// typed client builds.
var tableCalls = map[string]func(context.Context, *Client) error{
	"adduser":                  send(OpAddUser, AddUserReq{Profile: profile.New(tableUser).Snapshot()}),
	"user":                     send(OpUser, UserIDReq{UserID: string(tableUser)}),
	"users":                    send(OpUsers, empty{}),
	"browse":                   send(OpBrowse, BrowseReq{UserID: string(tableUser), Slots: 1}),
	"feed":                     send(OpFeed, UserIDReq{UserID: string(tableUser)}),
	"visit":                    send(OpVisit, VisitReq{UserID: string(tableUser), PixelID: "px-000001"}),
	"like":                     send(OpLike, LikeReq{UserID: string(tableUser), PageID: "page-x"}),
	"adpreferences":            send(OpAdPreferences, UserIDReq{UserID: string(tableUser)}),
	"advertisers":              send(OpAdvertisers, UserIDReq{UserID: string(tableUser)}),
	"explain":                  send(OpExplain, ExplainReq{UserID: string(tableUser)}),
	"register":                 send(OpRegister, httpapi.RegisterAdvertiserRequest{Name: "adv"}),
	"createcampaign":           send(OpCreateCampaign, CreateCampaignReq{Advertiser: "adv", Params: FromCampaignParams(platform.CampaignParams{})}),
	"pausecampaign":            send(OpPauseCampaign, CampaignReq{Advertiser: "adv", CampaignID: "camp-000001"}),
	"createpiiaudience":        send(OpCreateAudience[audience.KindPII], CreateAudienceReq{Advertiser: "adv", AudienceWire: httpapi.AudienceWire{Name: "a"}}),
	"createwebsiteaudience":    send(OpCreateAudience[audience.KindWebsite], CreateAudienceReq{Advertiser: "adv", AudienceWire: httpapi.AudienceWire{Name: "a", PixelID: "px-000001"}}),
	"createengagementaudience": send(OpCreateAudience[audience.KindEngagement], CreateAudienceReq{Advertiser: "adv", AudienceWire: httpapi.AudienceWire{Name: "a", PageID: "page-x"}}),
	"createaffinityaudience":   send(OpCreateAudience[audience.KindAffinity], CreateAudienceReq{Advertiser: "adv", AudienceWire: httpapi.AudienceWire{Name: "a", Phrases: []string{"jazz"}}}),
	"createlookalikeaudience":  send(OpCreateAudience[audience.KindLookalike], CreateAudienceReq{Advertiser: "adv", AudienceWire: httpapi.AudienceWire{Name: "a", Seed: "aud-000001", Overlap: 0.5}}),
	"issuepixel":               send(OpIssuePixel, AdvertiserReq{Advertiser: "adv"}),
	"rawreach":                 send(OpRawReach, RawReachReq{Advertiser: "adv", Spec: FromSpec(audience.Spec{})}),
	"campaigntotals":           send(OpCampaignTotals, CampaignReq{Advertiser: "adv", CampaignID: "camp-000001"}),
	"exportusers":              send(OpExportUsers, ExportUsersReq{Users: FromUserIDs([]profile.UserID{tableUser})}),
	"importusers":              send(OpImportUsers, ImportUsersReq{}),
	"removeusers":              send(OpRemoveUsers, RemoveUsersReq{Users: FromUserIDs([]profile.UserID{tableUser})}),
	"installstate":             send(OpInstallState, InstallStateReq{}),
	"syncstate":                send(OpSyncState, SyncStateReq{Skeleton: true}),
	"shipop":                   send(OpShipOp, ShipOpReq{LSN: 1, Payload: []byte(`{}`)}),
	"beginfollow":              send(OpBeginFollow, FollowReq{}),
	"endfollow":                send(OpEndFollow, empty{}),
	"rearm":                    send(OpRearm, RearmReq{}),
	"ring":                     send(OpRing, empty{}),
	"setring":                  send(OpSetRing, RingInfo{Version: 1}),
	"tracespans":               send(OpTraceSpans, empty{}),
}

// TestOpTableIsThePolicy holds client, server and table to one another for
// every op: the server registers exactly the table; a user-write consults
// OwnsUserWrite with the request's user and is sent once by a client whose
// transport fails after the request left; a user-read consults OwnsUser and
// is retried; nothing else consults the gate, and of the rest only the
// replicated mutations and shipop are sent once.
func TestOpTableIsThePolicy(t *testing.T) {
	gate := &recordingGate{}
	srv := NewServer(platform.New(platform.Config{Seed: 1}), "", nil)
	srv.SetGate(gate)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	names := func(m any) []string {
		var out []string
		for _, k := range reflect.ValueOf(m).MapKeys() {
			out = append(out, k.String())
		}
		sort.Strings(out)
		return out
	}
	var declared []string
	scopes := map[Scope]int{}
	for _, op := range table {
		declared = append(declared, op.Name)
		scopes[op.Scope]++
	}
	sort.Strings(declared)
	for i := 1; i < len(declared); i++ {
		if declared[i] == declared[i-1] {
			t.Fatalf("op %q is declared twice", declared[i])
		}
	}
	// cluster's TestRemoteShardSendsItsOwnRow drives one RemoteShard method
	// per row and counts on this many.
	if len(declared) != 33 {
		t.Fatalf("the op table has %d rows, want 33", len(declared))
	}
	if got := names(srv.handlers); !reflect.DeepEqual(got, declared) {
		t.Fatalf("registered handlers\n %v\nare not the op table\n %v", got, declared)
	}
	if got := names(tableCalls); !reflect.DeepEqual(got, declared) {
		t.Fatalf("this test sends\n %v\nwhich is not the op table\n %v", got, declared)
	}
	if len(scopes) != 5 {
		t.Fatalf("ops per scope = %v, want every scope in use", scopes)
	}
	// The read surface a faulty network may deliver twice is derived from
	// the table; these nine are what it has to come to today.
	wantReads := []string{"adpreferences", "advertisers", "campaigntotals", "explain", "feed", "health", "rawreach", "user", "users"}
	if got := names(ReadOps()); !reflect.DeepEqual(got, wantReads) {
		t.Fatalf("ReadOps() = %v, want %v", got, wantReads)
	}

	const retries = 2
	for _, op := range table {
		lossy := &lossyTransport{base: http.DefaultTransport}
		c := NewClient(ts.URL, Options{Transport: lossy, MaxRetries: retries,
			BackoffBase: time.Millisecond, BackoffMax: time.Millisecond})
		err := tableCalls[op.Name](context.Background(), c)
		c.Close()
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("%s over a transport that loses every answer: %v, want ErrUnavailable", op.Name, err)
		}
		once := op.Scope == UserWrite || op.Scope == Replicated || op.Name == "shipop"
		if once == op.Idempotent {
			t.Errorf("%s (scope %d): Idempotent = %v", op.Name, op.Scope, op.Idempotent)
		}
		wantSent := int64(1 + retries)
		if once {
			wantSent = 1
		}
		if got := lossy.sent.Load(); got != wantSent {
			t.Errorf("%s: sent %d times, want %d", op.Name, got, wantSent)
		}
		var wantReads, wantWrites []string
		switch op.Scope {
		case UserRead:
			wantReads = []string{string(tableUser), string(tableUser), string(tableUser)}
		case UserWrite:
			wantWrites = []string{string(tableUser)}
		}
		if reads, writes := gate.take(); !reflect.DeepEqual(reads, wantReads) || !reflect.DeepEqual(writes, wantWrites) {
			t.Errorf("%s: gate saw OwnsUser%v OwnsUserWrite%v, want %v and %v", op.Name, reads, writes, wantReads, wantWrites)
		}
	}
}

// rpcFuzzSeeds are request bodies for FuzzRPCRequest: one that decodes into
// every op's request type, one addressed to users the gate refuses, and the
// degenerate ones.
var rpcFuzzSeeds = []string{
	`{"user_id":"user-000000","slots":2,"pixel_id":"px-000001","page_id":"page-x","advertiser":"adv","name":"n",` +
		`"campaign_id":"camp-000001","lsn":1,"skeleton":true,"users":["user-000000"],"followers":[],"version":1,` +
		`"virtual_nodes":8,"shards":[{"addr":"a"}],"spec":{"expr":"age(18, 65)"},"keys":[],"phrases":["jazz"],` +
		`"seed":"aud-000001","profile":{"id":"user-000009","age":30},"payload":{"op":"like_page"},"impression":{},` +
		`"params":{"spec":{},"creative":{"headline":"h"},"bid_cap_micros":1000000},"chunk":{},"state":{}}`,
	`{"user_id":"stale-1","profile":{"id":"stale-2"}}`,
	`{}`,
	`{"user_id":7}`,
	`not json`,
	``,
}

// FuzzRPCRequest sends arbitrary bytes as the body of every op in the table
// to a server over a small journaled shard: no handler may panic, and the
// only answers are success, a protocol refusal (400, 413), a stale-ring
// refusal (409) and an application refusal (422).
func FuzzRPCRequest(f *testing.F) {
	for _, s := range rpcFuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		jp, err := platform.OpenJournaled(t.TempDir(), journal.Options{NoSync: true}, func() (*platform.Platform, error) {
			p := platform.New(platform.Config{Seed: 1})
			return p, p.AddUser(profile.New(tableUser))
		})
		if err != nil {
			t.Fatal(err)
		}
		defer jp.Close()
		if err := jp.RegisterAdvertiser("adv"); err != nil {
			t.Fatal(err)
		}
		if _, err := jp.IssuePixel("adv"); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(jp, "", nil)
		srv.SetGate(&recordingGate{})
		for _, op := range table {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, PathPrefix+op.Name, bytes.NewReader(body)))
			switch w.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
				http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("%s answered %d %s to body %q", op.Name, w.Code, w.Body, body)
			}
		}
	})
}
