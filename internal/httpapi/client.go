package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Client is the typed Go SDK for the platform's HTTP API.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Token is the advertiser's API bearer token, sent with every request
	// when non-empty. Servers running with authentication issue it at
	// registration (RouteRegister's answer).
	Token string
	// APIKey is the edge-gateway tenant key, sent as X-API-Key with every
	// request when non-empty. Independent of Token: the gateway identifies
	// the API client (tenant), the bearer token the advertiser account.
	APIKey string
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTPClient: http.DefaultClient}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: server returned %d: %s", e.Status, e.Message)
}

// URL is the route's path for p: the pattern's wildcards filled from p,
// path-escaped, then the row's query parameter.
func (rt *RouteInfo) URL(p Params) string {
	path := strings.NewReplacer("{name}", url.PathEscape(p.Name), "{id}", url.PathEscape(p.ID),
		"{pixelID}", url.PathEscape(p.PixelID)).Replace(rt.Path)
	switch rt.Query {
	case "slots":
		path += "?slots=" + strconv.Itoa(p.Slots)
	case "q":
		path += "?q=" + url.QueryEscape(p.Q)
	case "uid":
		path += "?uid=" + url.QueryEscape(p.UID)
	}
	return path
}

// Call sends one route's request and returns its answer: a JSON body
// decoded into Resp, or a []byte answer's body as it is. A failed call
// returns the zero Resp — a half-decoded answer is no answer.
func Call[Req, Resp any](ctx context.Context, c *Client, rt Route[Req, Resp], p Params, req Req) (Resp, error) {
	var resp Resp
	if err := c.send(ctx, rt.RouteInfo, p, req, &resp); err != nil {
		var zero Resp
		return zero, err
	}
	return resp, nil
}

// send makes one request of the row and decodes its answer into out.
func (c *Client) send(ctx context.Context, rt *RouteInfo, p Params, req, out any) error {
	var body io.Reader
	if rt.body {
		buf, err := json.Marshal(req)
		if err != nil {
			return fmt.Errorf("httpapi: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	hr, err := http.NewRequestWithContext(ctx, rt.Method, c.BaseURL+rt.URL(p), body)
	if err != nil {
		return err
	}
	if rt.body {
		hr.Header.Set("Content-Type", "application/json")
	}
	// A browser loading a pixel carries no API credentials.
	if c.Token != "" && rt.Scope != Pixel {
		hr.Header.Set("Authorization", "Bearer "+c.Token)
	}
	if c.APIKey != "" && rt.Scope != Pixel {
		hr.Header.Set("X-API-Key", c.APIKey)
	}
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er ErrorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	if raw, ok := out.(*[]byte); ok {
		*raw, err = io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("httpapi: decoding response: %w", err)
	}
	return nil
}

// The routes a binary or the benchmark calls by name; every other route is
// sent with Call.

// RegisterAdvertiser creates an advertiser account.
func (c *Client) RegisterAdvertiser(ctx context.Context, name string) error {
	_, err := Call(ctx, c, RouteRegister, Params{}, RegisterAdvertiserRequest{Name: name})
	return err
}

// CreateCampaign creates a campaign and returns its ID.
func (c *Client) CreateCampaign(ctx context.Context, advertiser string, req CreateCampaignRequest) (string, error) {
	resp, err := Call(ctx, c, RouteCreateCampaign, Params{Name: advertiser}, req)
	return resp.CampaignID, err
}

// Report fetches a campaign's performance report.
func (c *Client) Report(ctx context.Context, advertiser, campaignID string) (ReportWire, error) {
	return Call(ctx, c, RouteReport, Params{Name: advertiser, ID: campaignID}, empty{})
}

// CreateWebsiteAudience builds an audience over a pixel.
func (c *Client) CreateWebsiteAudience(ctx context.Context, advertiser string, req CreateWebsiteAudienceRequest) (string, error) {
	resp, err := Call(ctx, c, RouteCreateWebsiteAudience, Params{Name: advertiser}, req)
	return resp.AudienceID, err
}

// CreateEngagementAudience builds an audience of page likers.
func (c *Client) CreateEngagementAudience(ctx context.Context, advertiser string, req CreateEngagementAudienceRequest) (string, error) {
	resp, err := Call(ctx, c, RouteCreateEngagementAudience, Params{Name: advertiser}, req)
	return resp.AudienceID, err
}

// IssuePixel issues a tracking pixel.
func (c *Client) IssuePixel(ctx context.Context, advertiser string) (string, error) {
	resp, err := Call(ctx, c, RouteIssuePixel, Params{Name: advertiser}, empty{})
	return resp.PixelID, err
}

// Browse simulates the user viewing slots feed positions.
func (c *Client) Browse(ctx context.Context, userID string, slots int) ([]ImpressionWire, error) {
	return Call(ctx, c, RouteBrowse, Params{ID: userID, Slots: slots}, empty{})
}

// Feed fetches every impression the user has seen.
func (c *Client) Feed(ctx context.Context, userID string) ([]ImpressionWire, error) {
	return Call(ctx, c, RouteFeed, Params{ID: userID}, empty{})
}

// Explain fetches the platform's "why am I seeing this?" for an impression.
func (c *Client) Explain(ctx context.Context, userID string, imp ImpressionWire) (ExplanationWire, error) {
	return Call(ctx, c, RouteExplain, Params{ID: userID}, imp)
}

// FirePixel simulates the user's browser loading the tracking pixel on the
// provider's website: a GET for the 1x1 GIF. It returns the image bytes.
func (c *Client) FirePixel(ctx context.Context, pixelID, userID string) ([]byte, error) {
	return Call(ctx, c, RoutePixel, Params{PixelID: pixelID, UID: userID}, empty{})
}
