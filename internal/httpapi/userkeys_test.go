package httpapi

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/treads-project/treads/internal/platform"
)

// components returns the value of the platform's current component set,
// which sits behind its atomic component pointer: the test loads it through
// the pointer's exported Load method, by reflection, since every field on
// the way is unexported.
func components(t *testing.T, p *platform.Platform) reflect.Value {
	t.Helper()
	comp := reflect.ValueOf(p).Elem().FieldByName("comp")
	if !comp.IsValid() || !comp.CanAddr() {
		t.Fatal("premise: the platform has no addressable comp field")
	}
	load := reflect.NewAt(comp.Type(), unsafe.Pointer(comp.UnsafeAddr())).MethodByName("Load")
	if !load.IsValid() {
		t.Fatalf("premise: %s has no Load method", comp.Type())
	}
	return load.Call(nil)[0].Elem()
}

// serve sends each request to srv and fails the test on any status but 200.
func serve(t *testing.T, srv http.Handler, reqs ...*http.Request) {
	t.Helper()
	for _, req := range reqs {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
		}
	}
}

// TestPerUserKeysAreProfileIDs: the per-user rows a node keeps beside its
// profile store — delivery's user records, which hold the user's billing
// account rows, and each pixel's visitors — name a user by the ordinal its
// profile has in the store, so no type they are made of holds a string. A row that held
// a user ID could hold the request's copy of it: a uid taken from a path or
// a query is a substring of the request line, which such a row would keep
// alive for as long as the platform remembers the user. The test drives
// browses and pixel fires through the handler, checks that the tables hold
// rows, and walks their types, which live in unexported fields, by
// reflection.
func TestPerUserKeysAreProfileIDs(t *testing.T) {
	p := fuzzPlatform(t)
	srv := NewServer(p, nil)
	for _, uid := range []string{"u0", "u1"} {
		serve(t, srv,
			httptest.NewRequest(http.MethodPost, "/api/v1/users/"+uid+"/browse?slots=3", nil),
			httptest.NewRequest(http.MethodGet, "/pixel/px-000001?uid="+uid, nil))
	}
	plat := components(t, p)
	users := plat.FieldByName("pipeline").Elem().FieldByName("users")
	visits := plat.FieldByName("pixels").Elem().FieldByName("visits")
	if users.Len() != 2 || visits.Len() != 1 {
		t.Fatalf("premise: two users' browses and visits left %d delivery records and %d pixels' visitors, want 2 and 1", users.Len(), visits.Len())
	}
	for what, row := range map[string]reflect.Type{
		"delivery's user records": users.Type(),
		"a pixel's visitors":      visits.Type().Elem(),
	} {
		if path, ok := stringIn(row, what); ok {
			t.Errorf("%s holds a string: %s", what, path)
		}
	}
}

// stringIn reports whether a value of type t holds a string anywhere, and
// the path to the first one, path being how t was reached.
func stringIn(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.String:
		return path + " (" + t.String() + ")", true
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p, ok := stringIn(t.Field(i).Type, path+"."+t.Field(i).Name); ok {
				return p, true
			}
		}
	case reflect.Map:
		if p, ok := stringIn(t.Key(), path+" key"); ok {
			return p, true
		}
		return stringIn(t.Elem(), path+" element")
	case reflect.Array, reflect.Slice, reflect.Pointer:
		return stringIn(t.Elem(), path+" element")
	case reflect.Interface:
		return path + " (" + t.String() + ")", true // may hold one
	}
	return "", false
}

// TestLikesShareOnePageString: two users who like one page through the
// handler hold one string for it, the store's copy, not each the string
// its request body was decoded into.
func TestLikesShareOnePageString(t *testing.T) {
	p := fuzzPlatform(t)
	srv := NewServer(p, nil)
	for _, uid := range []string{"u0", "u1"} {
		serve(t, srv, httptest.NewRequest(http.MethodPost, "/api/v1/users/"+uid+"/likes", strings.NewReader(`{"page_id":"a-page"}`)))
	}
	a, b := p.User("u0").LikedPages(), p.User("u1").LikedPages()
	if len(a) != 1 || len(b) != 1 || a[0] != "a-page" || b[0] != "a-page" {
		t.Fatalf("premise: the users like %q and %q, want the one page each", a, b)
	}
	if unsafe.StringData(a[0]) != unsafe.StringData(b[0]) {
		t.Error("two likes of one page hold two strings")
	}
}
