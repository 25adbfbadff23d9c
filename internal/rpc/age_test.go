package rpc_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
)

// TestAddUserRefusesAgeOutOfRange: the add-user op refuses, as a malformed
// request, a profile whose age a Profile cannot hold, and adds no user;
// the oldest age it can hold is added and reads back.
func TestAddUserRefusesAgeOutOfRange(t *testing.T) {
	ctx := context.Background()
	p, c := newShardPair(t, "s", rpc.Options{})
	for _, age := range []int{-1, profile.MaxAge + 1} {
		_, err := rpc.Do(ctx, c, rpc.OpAddUser, rpc.AddUserReq{Profile: profile.State{ID: "too-old", Age: age}})
		if !errors.Is(err, rpc.ErrMalformed) || !strings.Contains(err.Error(), profile.ErrAgeOutOfRange.Error()) {
			t.Fatalf("age %d: AddUser = %v, want a malformed request naming %q", age, err, profile.ErrAgeOutOfRange)
		}
		if p.User("too-old") != nil {
			t.Fatalf("age %d: the refused user was added", age)
		}
	}
	if _, err := rpc.Do(ctx, c, rpc.OpAddUser, rpc.AddUserReq{Profile: profile.State{ID: "oldest", Age: profile.MaxAge}}); err != nil {
		t.Fatalf("age %d: %v", profile.MaxAge, err)
	}
	if got, err := rpc.Do(ctx, c, rpc.OpUser, rpc.UserIDReq{UserID: "oldest"}); err != nil || got.Profile == nil || got.Profile.Age != profile.MaxAge {
		t.Fatalf("User(oldest) = %+v, %v, want age %d", got.Profile, err, profile.MaxAge)
	}
}
