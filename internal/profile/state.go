package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
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
	rec := p.PII()
	s := State{
		ID: p.ID, Age: p.Age(), Sex: p.Sex, Nation: p.Country(), City: p.Region(),
		Lat: p.Lat, Lon: p.Lon, HasGeo: p.HasGeo,
		Emails: append([]string(nil), rec.Emails...),
		Phones: append([]string(nil), rec.Phones...),
	}
	s.Likes = p.LikedPages()
	ids := attr.IDs()
	if len(p.binary) > 0 {
		s.Binary = make([]attr.ID, len(p.binary)) // in ID order, as p.binary is
		for i, o := range p.binary {
			s.Binary[i] = ids[o]
		}
	}
	if values := p.values(); len(values) > 0 {
		s.Values = make(map[attr.ID]string, len(values))
		for _, av := range values {
			s.Values[ids[av.Ord]] = av.Value
		}
	}
	return s
}

// AppendSnapshotJSON appends json.Marshal(p.Snapshot()) to b, byte for byte,
// without building the State: the fields in State's order under its
// omitempty rules, the categorical values in ID order (the order json gives
// a map's keys, and the order of the sorted pairs), the likes in the sorted
// order the profile holds them. The attribute IDs are copied from attr's
// quoted table, not escaped here. It allocates only for a string to escape
// (or to grow b). Lat and Lon are finite, as everything that sets them
// ensures; json.Marshal refuses the rest.
func (p *Profile) AppendSnapshotJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendJSONString(b, string(p.ID))
	if p.AgeYrs != 0 {
		b = append(b, `,"age":`...)
		b = strconv.AppendUint(b, uint64(p.AgeYrs), 10)
	}
	b = appendStringField(b, `,"sex":`, p.Sex)
	b = appendStringField(b, `,"nation":`, p.Country())
	b = appendStringField(b, `,"city":`, p.Region())
	b = appendFloatField(b, `,"lat":`, p.Lat)
	b = appendFloatField(b, `,"lon":`, p.Lon)
	if p.HasGeo {
		b = append(b, `,"has_geo":true`...)
	}
	rec := p.PII()
	b = appendStringsField(b, `,"emails":`, rec.Emails, appendJSONString)
	b = appendStringsField(b, `,"phones":`, rec.Phones, appendJSONString)
	mu := p.likesLock()
	mu.RLock()
	b = appendStringsField(b, `,"likes":`, p.likes(), appendJSONString)
	mu.RUnlock()
	quoted := attr.Quoted()
	b = appendStringsField(b, `,"binary":`, p.binary, func(b []byte, o attr.Ord) []byte { return append(b, quoted[o]...) })
	if values := p.values(); len(values) > 0 {
		b = append(b, `,"values":{`...)
		for i, av := range values {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, quoted[av.Ord]...)
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

// appendStringsField writes ss as a JSON array, each element's string
// appended by str.
func appendStringsField[T any](b []byte, key string, ss []T, str func([]byte, T) []byte) []byte {
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
		b = str(b, s)
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

// ErrAgeOutOfRange is FromState's refusal of an age a Profile cannot hold:
// one below 0 or above MaxAge.
var ErrAgeOutOfRange = errors.New("profile: age out of range")

// MaxAge is the oldest age in years a Profile holds.
const MaxAge = math.MaxUint8

// FromState rebuilds a profile. It refuses a state with no ID, or with an
// age outside 0…MaxAge (ErrAgeOutOfRange).
func FromState(s State) (*Profile, error) {
	if s.ID == "" {
		return nil, fmt.Errorf("profile: state with empty ID")
	}
	if s.Age < 0 || s.Age > MaxAge {
		return nil, fmt.Errorf("%w: user %q is %d, outside 0…%d", ErrAgeOutOfRange, s.ID, s.Age, MaxAge)
	}
	p := New(s.ID)
	p.AgeYrs = uint8(s.Age)
	p.Sex = s.Sex
	p.SetCountry(s.Nation)
	p.SetRegion(s.City)
	p.Lat, p.Lon, p.HasGeo = s.Lat, s.Lon, s.HasGeo
	p.SetPII(pii.Record{Emails: s.Emails, Phones: s.Phones})
	if len(s.Likes) > 0 {
		likes := slices.Clone(s.Likes)
		slices.Sort(likes)
		p.rareFields().likes = slices.Compact(likes)
	}
	// Sized up front: a restored profile reaches Store.Add already packed.
	p.binary = make([]attr.Ord, 0, len(s.Binary))
	if len(s.Values) > 0 {
		p.rareFields().values = make([]ValuedAttr, 0, len(s.Values))
	}
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
