package httpapi

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unsafe"

	"github.com/treads-project/treads/internal/profile"
)

// TestPerUserKeysAreProfileIDs drives browses and pixel fires through the
// handler, then checks that every per-user key they left behind — delivery's
// user records, and each pixel's visitor set and first-visit log — is the
// stored profile's own ID string, not the request's copy. A uid taken from a
// path or a query is a substring of the request line, so a key that kept it
// would keep the whole line alive for as long as the platform remembers the
// user. The keys live in unexported fields, which the test reads by
// reflection.
func TestPerUserKeysAreProfileIDs(t *testing.T) {
	p := fuzzPlatform(t)
	srv := NewServer(p, nil)
	for _, uid := range []string{"u0", "u1"} {
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/api/v1/users/"+uid+"/browse?slots=3", nil),
			httptest.NewRequest(http.MethodGet, "/pixel/px-000001?uid="+uid, nil),
		} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
			}
		}
	}

	type key struct {
		where string
		v     reflect.Value
	}
	var keys []key
	plat := reflect.ValueOf(p).Elem()
	for _, k := range plat.FieldByName("pipeline").Elem().FieldByName("users").MapKeys() {
		keys = append(keys, key{"delivery's user records", k})
	}
	pixels := plat.FieldByName("pixels").Elem()
	for it := pixels.FieldByName("visits").MapRange(); it.Next(); {
		for _, k := range it.Value().MapKeys() {
			keys = append(keys, key{"pixel " + it.Key().String() + "'s visitor set", k})
		}
	}
	for it := pixels.FieldByName("order").MapRange(); it.Next(); {
		for i := 0; i < it.Value().Len(); i++ {
			keys = append(keys, key{"pixel " + it.Key().String() + "'s first-visit log", it.Value().Index(i)})
		}
	}
	if len(keys) != 6 {
		t.Fatalf("premise: two users left %d per-user keys, want 2 in each of three places", len(keys))
	}
	for _, k := range keys {
		uid := k.v.String()
		prof := p.User(profile.UserID(uid))
		if prof == nil {
			t.Fatalf("%s holds %q, which the store does not", k.where, uid)
		}
		if unsafe.StringData(uid) != unsafe.StringData(string(prof.ID)) {
			t.Errorf("%s holds %q in a string of its own, not the profile's ID", k.where, uid)
		}
	}
}
