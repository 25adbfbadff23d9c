package httpapi

import (
	"errors"
	"net/http"
	"strings"

	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// Scope is who may call a route, and so what the server checks before it
// serves one.
type Scope uint8

const (
	// Public routes are open to anyone: registration, the catalog search.
	Public Scope = iota
	// Advertiser routes act on the {name} account; with authentication on
	// they need that account's bearer token.
	Advertiser
	// User routes are an end user's own surface. They stay open: a real
	// deployment scopes them to the user's session.
	User
	// Pixel is the tracking pixel a user's browser loads: open, sent with
	// no API credentials, answered with an image.
	Pixel
	// Admin routes are the operator's: with authentication on they need the
	// admin account's token.
	Admin
	// Compaction and Membership are admin routes that drive what not every
	// server has, a journal's compactor and a router's cluster admin;
	// without it they answer 404.
	Compaction
	Membership
)

// Params are a request's path and query parameters: the values of a
// pattern's {name}, {id} and {pixelID} wildcards and of the one query
// parameter its row names.
type Params struct {
	Name    string // {name}: the advertiser account
	ID      string // {id}: a campaign, or on a user route the user
	PixelID string // {pixelID}
	Slots   int    // ?slots=: the feed positions a browse fills, 10 if absent
	Q       string // ?q=: the catalog search phrase
	UID     string // ?uid=: the user whose browser fires the pixel
}

// RouteInfo is one row of the route table, less its types.
type RouteInfo struct {
	// Pattern is the method and path as http.ServeMux reads them; Method and
	// Path are its two halves.
	Pattern, Method, Path string
	// Query names the query parameter the route reads, if any: slots, q or
	// uid.
	Query string
	Scope Scope
	// OK is the status of a success, Refused that of an error the backend
	// answers. An Unavailable anywhere in an error's chain is a 503 instead,
	// and an error about the request itself carries its own status.
	OK, Refused int

	body bool // the route reads a JSON request body
	// answer decodes the body into the row's request type, makes the
	// backend call and writes a success.
	answer func(c call, w http.ResponseWriter) error
	// write sends a success whose answer is a []byte as it is; nil sends
	// the answer as JSON.
	write func(w http.ResponseWriter, status int, body []byte)
}

// Route is a row together with its request and response types: the Server
// serves it, a client sends it with Call.
type Route[Req, Resp any] struct{ *RouteInfo }

// call is what a row's backend call reads besides the body.
type call struct {
	*Server
	r *http.Request
	Params
}

// Routes lists every row, in declaration order: the order Server registers
// them in.
var Routes []*RouteInfo

// declare adds a row whose backend call is fn. Only answer, which types the
// body and the answer, is written per row; the rest of serving a request is
// Server.serve, once for all rows.
func declare[Req, Resp any](pattern, query string, scope Scope, ok, refused int, fn func(call, Req) (Resp, error)) Route[Req, Resp] {
	method, path, _ := strings.Cut(pattern, " ")
	var req Req
	_, none := any(req).(empty)
	rt := &RouteInfo{Pattern: pattern, Method: method, Path: path, Query: query, Scope: scope, OK: ok, Refused: refused, body: !none}
	rt.answer = func(c call, w http.ResponseWriter) error {
		var req Req
		if rt.body {
			if err := readJSON(w, c.r, &req); err != nil {
				return err
			}
		}
		resp, err := fn(c, req)
		switch {
		case err != nil:
			return err
		case rt.write != nil:
			rt.write(w, rt.OK, any(resp).([]byte))
		default:
			writeJSON(w, rt.OK, resp)
		}
		return nil
	}
	Routes = append(Routes, rt)
	return Route[Req, Resp]{rt}
}

// writes sets the writer of the row's []byte answer.
func (rt Route[Req, Resp]) writes(fn func(w http.ResponseWriter, status int, body []byte)) Route[Req, Resp] {
	rt.write = fn
	return rt
}

// empty is the body of a route that reads none.
type empty = struct{}

// audienceRoute declares the audience route whose body is Req: the body
// describes a Def, and all five routes answer alike.
func audienceRoute[Req interface{ def() (audience.Def, error) }](pattern string) Route[Req, AudienceResponse] {
	return declare(pattern, "", Advertiser, http.StatusCreated, http.StatusBadRequest, func(c call, req Req) (AudienceResponse, error) {
		d, err := req.def()
		if err != nil {
			return AudienceResponse{}, badRequest(err)
		}
		id, err := c.p.CreateAudience(c.Name, d)
		return AudienceResponse{AudienceID: string(id)}, err
	})
}

// errReservedName refuses the public registration of the admin account,
// whose token is the operator credential.
var errReservedName = errors.New("httpapi: the name " + AdminAccount + " is reserved for the operator")

// The route table. Each route is written down here and nowhere else:
// Server.routes serves every row, Call sends one, and docs/API.md lists them.
var (
	RouteRegister = declare("POST /api/v1/advertisers", "", Public, http.StatusCreated, http.StatusConflict,
		func(c call, req RegisterAdvertiserRequest) (RegisterAdvertiserResponse, error) {
			if req.Name == AdminAccount {
				return RegisterAdvertiserResponse{}, errReservedName
			}
			if err := c.p.RegisterAdvertiser(req.Name); err != nil {
				return RegisterAdvertiserResponse{}, err
			}
			resp := RegisterAdvertiserResponse{Name: req.Name}
			if c.auth != nil {
				tok, err := c.auth.Issue(req.Name)
				if err != nil {
					return resp, withStatus(http.StatusInternalServerError, err)
				}
				resp.Token = tok
			}
			return resp, nil
		})
	RouteCreateCampaign = declare("POST /api/v1/advertisers/{name}/campaigns", "", Advertiser, http.StatusCreated, http.StatusBadRequest,
		func(c call, req CreateCampaignRequest) (CreateCampaignResponse, error) {
			spec, err := req.Spec.ToSpec()
			if err != nil {
				return CreateCampaignResponse{}, badRequest(err)
			}
			id, err := c.p.CreateCampaign(c.Name, platform.CampaignParams{
				Spec:         spec,
				BidCapCPM:    money.FromDollars(req.BidCapUSD),
				Creative:     req.Creative.ToCreative(),
				FrequencyCap: req.FrequencyCap,
				Budget:       money.FromDollars(req.BudgetUSD),
			})
			if errors.Is(err, platform.ErrRejected) {
				err = withStatus(http.StatusUnprocessableEntity, err)
			}
			return CreateCampaignResponse{CampaignID: id}, err
		})
	RoutePauseCampaign = declare("POST /api/v1/advertisers/{name}/campaigns/{id}/pause", "", Advertiser, http.StatusOK, http.StatusNotFound,
		func(c call, _ empty) (PauseResponse, error) {
			return PauseResponse{Paused: true}, c.p.PauseCampaign(c.Name, c.ID)
		})
	RouteReport = declare("GET /api/v1/advertisers/{name}/campaigns/{id}/report", "", Advertiser, http.StatusOK, http.StatusNotFound,
		func(c call, _ empty) (ReportWire, error) {
			rep, err := c.p.Report(c.r.Context(), c.Name, c.ID)
			return FromReport(rep), err
		})
	RouteCreatePIIAudience        = audienceRoute[CreatePIIAudienceRequest]("POST /api/v1/advertisers/{name}/audiences/pii")
	RouteCreateWebsiteAudience    = audienceRoute[CreateWebsiteAudienceRequest]("POST /api/v1/advertisers/{name}/audiences/website")
	RouteCreateEngagementAudience = audienceRoute[CreateEngagementAudienceRequest]("POST /api/v1/advertisers/{name}/audiences/engagement")
	RouteCreateAffinityAudience   = audienceRoute[CreateAffinityAudienceRequest]("POST /api/v1/advertisers/{name}/audiences/affinity")
	RouteCreateLookalikeAudience  = audienceRoute[CreateLookalikeAudienceRequest]("POST /api/v1/advertisers/{name}/audiences/lookalike")
	RouteIssuePixel               = declare("POST /api/v1/advertisers/{name}/pixels", "", Advertiser, http.StatusCreated, http.StatusBadRequest,
		func(c call, _ empty) (PixelResponse, error) {
			id, err := c.p.IssuePixel(c.Name)
			return PixelResponse{PixelID: string(id)}, err
		})
	RouteReach = declare("POST /api/v1/advertisers/{name}/reach", "", Advertiser, http.StatusOK, http.StatusBadRequest,
		func(c call, req ReachRequest) (ReachResponse, error) {
			spec, err := req.Spec.ToSpec()
			if err != nil {
				return ReachResponse{}, badRequest(err)
			}
			reach, err := c.p.PotentialReach(c.r.Context(), c.Name, spec)
			return ReachResponse{Reach: reach}, err
		})
	RouteSearchAttributes = declare("GET /api/v1/attributes", "q", Public, http.StatusOK, http.StatusBadRequest,
		func(c call, _ empty) ([]AttributeWire, error) {
			hits := c.p.SearchAttributes(c.Q)
			out := make([]AttributeWire, 0, len(hits))
			for _, a := range hits {
				out = append(out, FromAttribute(a))
			}
			return out, nil
		})

	RouteBrowse = declare("POST /api/v1/users/{id}/browse", "slots", User, http.StatusOK, http.StatusNotFound,
		func(c call, _ empty) ([]ImpressionWire, error) {
			imps, err := c.p.BrowseFeedCtx(c.r.Context(), profile.UserID(c.ID), c.Slots)
			return FromImpressions(imps), err
		})
	RouteFeed = declare("GET /api/v1/users/{id}/feed", "", User, http.StatusOK, http.StatusNotFound,
		func(c call, _ empty) ([]ImpressionWire, error) {
			imps, err := c.p.FeedCtx(c.r.Context(), profile.UserID(c.ID))
			return FromImpressions(imps), err
		})
	RouteAdPreferences = declare("GET /api/v1/users/{id}/adpreferences", "", User, http.StatusOK, http.StatusNotFound,
		func(c call, _ empty) (PreferencesResponse, error) {
			prefs, err := c.p.AdPreferences(profile.UserID(c.ID))
			out := PreferencesResponse{Attributes: make([]string, 0, len(prefs))}
			for _, id := range prefs {
				out.Attributes = append(out.Attributes, string(id))
			}
			return out, err
		})
	RouteAdvertisersTargetingMe = declare("GET /api/v1/users/{id}/advertisers", "", User, http.StatusOK, http.StatusNotFound,
		func(c call, _ empty) (AdvertisersResponse, error) {
			names, err := c.p.AdvertisersTargetingMe(profile.UserID(c.ID))
			return AdvertisersResponse{Advertisers: names}, err
		})
	RouteLike = declare("POST /api/v1/users/{id}/likes", "", User, http.StatusOK, http.StatusNotFound,
		func(c call, req LikeRequest) (LikeResponse, error) {
			return LikeResponse{Liked: true}, c.p.LikePage(profile.UserID(c.ID), req.PageID)
		})
	RouteExplain = declare("POST /api/v1/users/{id}/explain", "", User, http.StatusOK, http.StatusNotFound,
		func(c call, req ImpressionWire) (ExplanationWire, error) {
			ex, err := c.p.ExplainImpression(profile.UserID(c.ID), req.ToImpression())
			return ExplanationWire{Attribute: string(ex.Attribute), Text: ex.Text}, err
		})

	// The tracking pixel: a GET for a 1x1 GIF, exactly how real pixels
	// work. The platform identifies the browsing user (here by the uid
	// query parameter, standing in for the session cookie) and records the
	// visit; the site owner (the transparency provider) learns nothing.
	RoutePixel = declare("GET /pixel/{pixelID}", "uid", Pixel, http.StatusOK, http.StatusNotFound,
		func(c call, _ empty) ([]byte, error) {
			return transparentPixelGIF, c.p.VisitPage(profile.UserID(c.UID), pixel.PixelID(c.PixelID))
		}).writes(func(w http.ResponseWriter, status int, gif []byte) {
		w.Header().Set("Content-Type", "image/gif")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(status)
		_, _ = w.Write(gif) // an error is a client gone away: nothing to do
	})

	RouteCompact = declare("POST /admin/v1/compact", "", Compaction, http.StatusOK, http.StatusInternalServerError,
		func(c call, _ empty) (CompactResponse, error) {
			lsn, err := c.compactor.Compact()
			return CompactResponse{SnapshotLSN: lsn}, err
		})
	RouteClusterStatus = declare("GET /admin/v1/cluster", "", Membership, http.StatusOK, http.StatusConflict,
		func(c call, _ empty) (ClusterStatusResponse, error) { return c.clusterAdmin.Status(), nil })
	RouteAddShard = declare("POST /admin/v1/cluster/shards", "", Membership, http.StatusOK, http.StatusConflict,
		func(c call, req AddShardRequest) (ReshardReportWire, error) {
			if req.Addr == "" {
				return ReshardReportWire{}, badRequest(errors.New("httpapi: add shard without addr"))
			}
			return c.clusterAdmin.AddShard(req.Addr, req.Replicas)
		})
	RouteRemoveShard = declare("DELETE /admin/v1/cluster/shards", "", Membership, http.StatusOK, http.StatusConflict,
		func(c call, _ empty) (ReshardReportWire, error) { return c.clusterAdmin.RemoveShard() })
	RoutePromote = declare("POST /admin/v1/cluster/promote", "", Membership, http.StatusOK, http.StatusConflict,
		func(c call, req PromoteRequest) (PromoteResponse, error) {
			return c.clusterAdmin.Promote(req.Slot, req.Force)
		})
	RouteResumeReshard = declare("POST /admin/v1/cluster/resume", "", Membership, http.StatusOK, http.StatusConflict,
		func(c call, _ empty) (ResumeResponse, error) {
			return ResumeResponse{Resumed: true}, c.clusterAdmin.ResumeReshard()
		})
)

// transparentPixelGIF is the classic 1x1 transparent GIF a tracking pixel
// endpoint serves.
var transparentPixelGIF = []byte{
	0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00,
	0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
	0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
}
