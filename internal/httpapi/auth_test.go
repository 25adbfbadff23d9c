package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

func authedEnv(t *testing.T) (*Client, *Authenticator) {
	t.Helper()
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	p := platform.New(platform.Config{Market: &market, Seed: 1})
	u := profile.New("u0")
	u.SetCountry("US")
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	srv, auth := NewServerWithAuth(p, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), auth
}

// tokenOf is the token a registration's answer carries.
func tokenOf(r RegisterAdvertiserResponse, err error) (string, error) { return r.Token, err }

func TestAuthTokenIssuedAtRegistration(t *testing.T) {
	c, _ := authedEnv(t)
	tok, err := tokenOf(Call(ctx(), c, RouteRegister, Params{}, RegisterAdvertiserRequest{Name: "tp"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tok) < 20 {
		t.Fatalf("token = %q, too short", tok)
	}
}

func TestAuthRequiredForAdvertiserEndpoints(t *testing.T) {
	c, _ := authedEnv(t)
	tok, err := tokenOf(Call(ctx(), c, RouteRegister, Params{}, RegisterAdvertiserRequest{Name: "tp"}))
	if err != nil {
		t.Fatal(err)
	}
	// Without the token, advertiser-scoped calls are 401.
	if _, err := c.IssuePixel(ctx(), "tp"); err == nil {
		t.Fatal("unauthenticated pixel issuance accepted")
	}
	if _, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		BidCapUSD: 10, Creative: CreativeWire{Body: "x"},
	}); err == nil {
		t.Fatal("unauthenticated campaign creation accepted")
	}
	// With the token, they work.
	c.Token = tok
	if _, err := c.IssuePixel(ctx(), "tp"); err != nil {
		t.Fatalf("authenticated pixel issuance failed: %v", err)
	}
	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		BidCapUSD: 10, Creative: CreativeWire{Body: "x"},
	})
	if err != nil {
		t.Fatalf("authenticated campaign creation failed: %v", err)
	}
	if _, err := c.Report(ctx(), "tp", id); err != nil {
		t.Fatalf("authenticated report failed: %v", err)
	}
}

func TestAuthTokensAreAccountScoped(t *testing.T) {
	c, _ := authedEnv(t)
	tokA, err := tokenOf(Call(ctx(), c, RouteRegister, Params{}, RegisterAdvertiserRequest{Name: "adv-a"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tokenOf(Call(ctx(), c, RouteRegister, Params{}, RegisterAdvertiserRequest{Name: "adv-b"})); err != nil {
		t.Fatal(err)
	}
	// adv-a's token must not authorize adv-b's endpoints.
	c.Token = tokA
	if _, err := c.IssuePixel(ctx(), "adv-b"); err == nil {
		t.Fatal("cross-account token accepted")
	}
}

func TestAuthWrongTokenRejected(t *testing.T) {
	c, _ := authedEnv(t)
	if _, err := tokenOf(Call(ctx(), c, RouteRegister, Params{}, RegisterAdvertiserRequest{Name: "tp"})); err != nil {
		t.Fatal(err)
	}
	c.Token = "tk_bogus"
	if _, err := c.IssuePixel(ctx(), "tp"); err == nil {
		t.Fatal("bogus token accepted")
	}
}

func TestAuthUserEndpointsStayOpen(t *testing.T) {
	// User-facing endpoints (feed, preferences) are session-scoped in a
	// real deployment; advertiser tokens must not be demanded there.
	c, _ := authedEnv(t)
	if _, err := c.Browse(ctx(), "u0", 1); err != nil {
		t.Fatalf("user browse blocked by advertiser auth: %v", err)
	}
	if _, err := Call(ctx(), c, RouteSearchAttributes, Params{Q: "jazz"}, empty{}); err != nil {
		t.Fatalf("catalog search blocked: %v", err)
	}
}

func TestAuthenticatorVerify(t *testing.T) {
	a := NewAuthenticator()
	tok, err := a.Issue("x")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verify("x", tok) {
		t.Fatal("valid token rejected")
	}
	if a.Verify("x", "") || a.Verify("x", "wrong") || a.Verify("y", tok) {
		t.Fatal("invalid credential accepted")
	}
	// Re-issuing rotates the token.
	tok2, _ := a.Issue("x")
	if a.Verify("x", tok) {
		t.Fatal("stale token still valid after rotation")
	}
	if !a.Verify("x", tok2) {
		t.Fatal("rotated token rejected")
	}
}

// TestRegisterCannotTakeTheAdminAccount: the operator credential is the
// authenticator's admin account, so the public registration route refuses
// that name before anything is written — it mints no token, replaces none,
// and journals no record.
func TestRegisterCannotTakeTheAdminAccount(t *testing.T) {
	jp, err := platform.OpenJournaled(t.TempDir(), journal.Options{NoSync: true}, func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: 1}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jp.Close() })
	srv, auth := NewServerWithAuth(jp, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	opTok, err := auth.Issue(AdminAccount)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/api/v1/advertisers", "application/json", strings.NewReader(`{"name":"admin"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("registering %q: %d %s, want 409", AdminAccount, resp.StatusCode, body)
	}
	if !auth.Verify(AdminAccount, opTok) {
		t.Error("the operator's token stopped verifying after a public registration")
	}
	if got := jp.LastLSN(); got != 0 {
		t.Errorf("the refused registration journaled %d records, want 0", got)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/admin/v1/trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+opTok)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trace dump with the operator's token: %d, want 200", resp.StatusCode)
	}
}
