package profile

import (
	"fmt"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/attr"
)

func TestProfileAttrOps(t *testing.T) {
	p := New("u1")
	if p.HasAttr("a.b.c") {
		t.Error("fresh profile has attribute")
	}
	p.SetAttr("a.b.c")
	if !p.HasAttr("a.b.c") {
		t.Error("SetAttr did not set")
	}
	p.SetAttrValue("cat.x", "v2")
	if !p.HasAttr("cat.x") {
		t.Error("categorical value should count as set")
	}
	v, ok := p.AttrValue("cat.x")
	if !ok || v != "v2" {
		t.Errorf("AttrValue = %q, %v", v, ok)
	}
	if _, ok := p.AttrValue("a.b.c"); ok {
		t.Error("binary attribute should have no value")
	}
	if p.AttrCount() != 2 {
		t.Errorf("AttrCount = %d", p.AttrCount())
	}
	got := p.Attrs()
	if len(got) != 2 || got[0] != "a.b.c" || got[1] != "cat.x" {
		t.Errorf("Attrs = %v", got)
	}
}

func TestProfileSubjectInterface(t *testing.T) {
	p := New("u1")
	p.AgeYrs = 34
	p.Sex = "male"
	p.Nation = "US"
	p.City = "Boston"
	p.SetAttr("platform.music.jazz")
	var s attr.Subject = p
	if s.Age() != 34 || s.Gender() != "male" || s.Country() != "US" || s.Region() != "Boston" {
		t.Error("Subject accessors wrong")
	}
	e := attr.MustParse("attr(platform.music.jazz) AND age(30, 65) AND country(US)")
	if !e.Match(p) {
		t.Error("expression should match profile")
	}
}

func TestProfileLikes(t *testing.T) {
	p := New("u1")
	if p.LikesPage("page1") {
		t.Error("fresh profile likes a page")
	}
	p.Like("page1")
	if !p.LikesPage("page1") {
		t.Error("Like did not register")
	}
}

func TestStoreAddGet(t *testing.T) {
	s := NewStore()
	p := New("u1")
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	if s.Get("u1") != p {
		t.Error("Get returned wrong profile")
	}
	if s.Get("missing") != nil {
		t.Error("Get of missing user not nil")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if err := s.Add(New("u1")); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := s.Add(nil); err == nil {
		t.Error("nil profile accepted")
	}
	if err := s.Add(New("")); err == nil {
		t.Error("empty ID accepted")
	}
}

func TestStoreInsertionOrder(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		if err := s.Add(New(UserID(fmt.Sprintf("u%02d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.UserIDs()
	for i, id := range ids {
		if want := UserID(fmt.Sprintf("u%02d", i)); id != want {
			t.Fatalf("UserIDs[%d] = %q, want %q", i, id, want)
		}
	}
	var visited []UserID
	s.Each(func(p *Profile) { visited = append(visited, p.ID) })
	if len(visited) != 10 || visited[0] != "u00" || visited[9] != "u09" {
		t.Fatalf("Each order = %v", visited)
	}
}

func TestStoreConcurrentReads(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		p := New(UserID(fmt.Sprintf("u%d", i)))
		p.SetAttr("x")
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if s.Get(UserID(fmt.Sprintf("u%d", i))) == nil {
					t.Error("missing profile")
					return
				}
				s.Each(func(p *Profile) { _ = p.HasAttr("x") })
			}
		}()
	}
	wg.Wait()
}

func TestStoreConcurrentAddAndRead(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = s.Add(New(UserID(fmt.Sprintf("w%d", i))))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = s.Len()
			_ = s.UserIDs()
		}
	}()
	wg.Wait()
	if s.Len() != 500 {
		t.Fatalf("Len = %d after concurrent adds", s.Len())
	}
}
