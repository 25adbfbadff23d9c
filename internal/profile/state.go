package profile

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/pii"
)

// State is the serializable form of one profile (JSON-friendly: maps and
// slices of plain types only).
type State struct {
	ID     UserID             `json:"id"`
	Age    int                `json:"age,omitempty"`
	Sex    string             `json:"sex,omitempty"`
	Nation string             `json:"nation,omitempty"`
	City   string             `json:"city,omitempty"`
	Lat    float64            `json:"lat,omitempty"`
	Lon    float64            `json:"lon,omitempty"`
	HasGeo bool               `json:"has_geo,omitempty"`
	Emails []string           `json:"emails,omitempty"`
	Phones []string           `json:"phones,omitempty"`
	Likes  []string           `json:"likes,omitempty"`
	Binary []attr.ID          `json:"binary,omitempty"`
	Values map[attr.ID]string `json:"values,omitempty"`
}

// Snapshot exports the profile.
func (p *Profile) Snapshot() State {
	s := State{
		ID: p.ID, Age: p.AgeYrs, Sex: p.Sex, Nation: p.Nation, City: p.City,
		Lat: p.Lat, Lon: p.Lon, HasGeo: p.HasGeo,
		Emails: append([]string(nil), p.PII.Emails...),
		Phones: append([]string(nil), p.PII.Phones...),
	}
	s.Likes = p.LikedPages()
	s.Binary = append([]attr.ID(nil), p.binary...) // already sorted
	if len(p.values) > 0 {
		s.Values = make(map[attr.ID]string, len(p.values))
		for _, av := range p.values {
			s.Values[av.ID] = av.Value
		}
	}
	return s
}

// AppendSnapshotJSON appends json.Marshal(p.Snapshot()) to b, byte for byte,
// without building the State: the fields in State's order under its
// omitempty rules, the categorical values in ID order (the order json gives
// a map's keys, and the order of the sorted pairs), the likes sorted as
// LikedPages reads them. It allocates only for a profile with likes (their
// sorted slice) or a string to escape. Lat and Lon are finite, as everything
// that sets them ensures; json.Marshal refuses the rest.
func (p *Profile) AppendSnapshotJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, string(p.ID))
	if p.AgeYrs != 0 {
		b = append(b, `,"age":`...)
		b = strconv.AppendInt(b, int64(p.AgeYrs), 10)
	}
	b = appendStringField(b, `,"sex":`, p.Sex)
	b = appendStringField(b, `,"nation":`, p.Nation)
	b = appendStringField(b, `,"city":`, p.City)
	b = appendFloatField(b, `,"lat":`, p.Lat)
	b = appendFloatField(b, `,"lon":`, p.Lon)
	if p.HasGeo {
		b = append(b, `,"has_geo":true`...)
	}
	b = appendStringsField(b, `,"emails":`, p.PII.Emails)
	b = appendStringsField(b, `,"phones":`, p.PII.Phones)
	b = appendStringsField(b, `,"likes":`, p.LikedPages())
	b = appendStringsField(b, `,"binary":`, p.binary)
	if len(p.values) > 0 {
		b = append(b, `,"values":{`...)
		for i, av := range p.values {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, string(av.ID))
			b = append(b, ':')
			b = appendJSONString(b, av.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendJSONString(append(b, key...), s)
}

func appendStringsField[S ~string](b []byte, key string, ss []S) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(b, key...)
	for i, s := range ss {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = appendJSONString(b, string(s))
	}
	return append(b, ']')
}

// appendFloatField writes f as encoding/json does: the shortest digits that
// read back as f, in exponent form below 1e-6 and from 1e21, with a
// one-digit negative exponent not padded to two.
func appendFloatField(b []byte, key string, f float64) []byte {
	if f == 0 {
		return b
	}
	b = append(b, key...)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// plainJSON[c] is true for the bytes a JSON string carries as themselves:
// printable ASCII other than the quote, the backslash and the three that
// json.Marshal escapes for HTML.
var plainJSON = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// appendJSONString appends s as json.Marshal writes it. A string of plain
// bytes is copied between quotes; any other is handed to json.Marshal, so
// every escape is exactly its own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// FromState rebuilds a profile.
func FromState(s State) (*Profile, error) {
	if s.ID == "" {
		return nil, fmt.Errorf("profile: state with empty ID")
	}
	p := New(s.ID)
	p.AgeYrs = s.Age
	p.Sex = s.Sex
	p.Nation = s.Nation
	p.City = s.City
	p.Lat, p.Lon, p.HasGeo = s.Lat, s.Lon, s.HasGeo
	p.PII = pii.Record{
		Emails: append([]string(nil), s.Emails...),
		Phones: append([]string(nil), s.Phones...),
	}
	for _, page := range s.Likes {
		p.Like(page)
	}
	// Sized up front: a restored profile reaches Store.Add already packed.
	p.binary = make([]attr.ID, 0, len(s.Binary))
	p.values = make([]ValuedAttr, 0, len(s.Values))
	for _, id := range s.Binary {
		p.SetAttr(id)
	}
	for id, v := range s.Values {
		p.SetAttrValue(id, v)
	}
	return p, nil
}

// Snapshot exports every profile in insertion order.
func (st *Store) Snapshot() []State {
	var out []State
	st.Each(func(p *Profile) { out = append(out, p.Snapshot()) })
	return out
}
