package profile

import (
	"fmt"

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
