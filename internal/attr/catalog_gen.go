package attr

import (
	"fmt"
	"strings"
	"unicode"
)

// The counts the paper reports for early-2018 Facebook (citing Andreou et
// al., NDSS 2018): 614 attributes computed by the platform itself plus 507
// attributes sourced from data brokers and offered to U.S. advertisers.
const (
	// NumPlatformAttrs is the number of platform-computed attributes in the
	// default catalog.
	NumPlatformAttrs = 614
	// NumPartnerAttrs is the number of data-broker ("partner") attributes
	// in the default catalog, matching the 507 U.S. partner categories the
	// paper's validation targeted one Tread at each of.
	NumPartnerAttrs = 507
)

// Brokers whose partner categories the U.S. catalog carries.
var partnerBrokers = []string{"Acxiom", "Oracle Data Cloud", "Epsilon", "Experian", "TransUnion"}

// slug converts a human-readable name to an ID component: letters and
// digits lowercased, a run of separators as one '_', '+' as "plus", and
// anything else dropped.
func slug(s string) string {
	b := make([]byte, 0, len(s)+len("plus"))
	for _, r := range s {
		switch r = unicode.ToLower(r); {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b = append(b, byte(r))
		case r == ' ' || r == '-' || r == '/' || r == '&' || r == ',':
			if n := len(b); n > 0 && b[n-1] != '_' {
				b = append(b, '_')
			}
		case r == '+':
			b = append(b, "plus"...)
		case r == '$':
			// drop
		}
	}
	return strings.Trim(string(b), "_")
}

type catalogBuilder struct {
	attrs []Attribute
	seen  map[ID]bool
}

func newCatalogBuilder() *catalogBuilder {
	return &catalogBuilder{seen: make(map[ID]bool)}
}

func (b *catalogBuilder) add(src Source, category, broker, name string) {
	b.addFull(Attribute{
		ID:       ID(src.String() + "." + slug(category) + "." + slug(name)),
		Name:     name,
		Category: category,
		Source:   src,
		Broker:   broker,
		Kind:     Binary,
	})
}

func (b *catalogBuilder) addFull(a Attribute) {
	if b.seen[a.ID] {
		// Disambiguate collisions deterministically rather than dropping.
		for i := 2; ; i++ {
			id := ID(fmt.Sprintf("%s_%d", a.ID, i))
			if !b.seen[id] {
				a.ID = id
				break
			}
		}
	}
	b.seen[a.ID] = true
	b.attrs = append(b.attrs, a)
}

func (b *catalogBuilder) addAll(src Source, category, broker string, names []string) {
	for _, n := range names {
		b.add(src, category, broker, n)
	}
}

// brokerFor deterministically assigns a broker to the i-th partner attribute.
func brokerFor(i int) string { return partnerBrokers[i%len(partnerBrokers)] }

// DefaultCatalog builds the default U.S. catalog: exactly NumPlatformAttrs
// platform attributes and NumPartnerAttrs partner attributes, with the
// category mix of the real platform (financial bands, purchase behaviour,
// job roles, household data, automotive purchase intent, …). The catalog is
// deterministic: every call returns the same attributes in the same order.
func DefaultCatalog() *Catalog {
	b := newCatalogBuilder()
	buildPlatformAttrs(b)
	buildPartnerAttrs(b)
	return MustNewCatalog(b.attrs)
}

func buildPlatformAttrs(b *catalogBuilder) {
	start := len(b.attrs)

	b.addAll(SourcePlatform, "Demographics", "", []string{
		"Single", "In a relationship", "Engaged", "Married", "Separated",
		"Divorced", "Widowed", "In a civil union",
		"High school graduate", "Some college", "Associate degree",
		"College graduate", "Master's degree", "Doctorate degree",
		"Parents (all)", "Parents with toddlers", "Parents with preschoolers",
		"Parents with preteens", "Parents with teenagers",
		"Parents with adult children", "Expecting parents",
		"Recently moved", "New job", "New relationship", "Newly engaged",
		"Recently returned from travelling", "Away from family",
		"Away from hometown", "Long-distance relationship",
		"Birthday this month", "Anniversary within 30 days",
		"Close friends of people with birthdays this month",
		"Politically very liberal", "Politically liberal",
		"Politically moderate", "Politically conservative",
		"Politically very conservative",
	})

	b.addAll(SourcePlatform, "Work and education", "", []string{
		"Works in administrative services", "Works in architecture and engineering",
		"Works in arts and entertainment", "Works in business and finance",
		"Works in cleaning and maintenance", "Works in community services",
		"Works in computation and mathematics", "Works in construction",
		"Works in education and libraries", "Works in farming and fishing",
		"Works in food and restaurants", "Works in government",
		"Works in healthcare and medical services", "Works in IT and technical services",
		"Works in installation and repair", "Works in legal services",
		"Works in life sciences", "Works in management",
		"Works in military", "Works in nursing", "Works in personal care",
		"Works in production", "Works in protective services",
		"Works in retail sales", "Works in social sciences",
		"Works in transportation", "Works in veterinary services",
		"Small business owner", "Studied computer science", "Studied law",
		"Studied medicine", "Studied engineering", "Studied business",
		"Currently in college", "Currently in graduate school",
	})

	interestTopics := map[string][]string{
		"Hobbies and activities": {
			"Salsa dance", "Ballroom dance", "Hip hop dance", "Photography",
			"Painting", "Drawing", "Sculpture", "Pottery", "Knitting",
			"Sewing", "Woodworking", "Gardening", "Bird watching",
			"Astronomy", "Chess", "Board games", "Card games", "Puzzles",
			"Model building", "Coin collecting", "Stamp collecting",
			"Genealogy", "Meditation", "Yoga", "Calligraphy", "Origami",
			"Magic tricks", "Karaoke", "Scrapbooking", "Home brewing",
			"Beekeeping", "Foraging", "Geocaching", "Metal detecting",
			"Cosplay", "Amateur radio", "Juggling", "Kite flying",
			"Lock picking", "Soap making",
		},
		"Music": {
			"Rock music", "Pop music", "Jazz", "Blues", "Classical music",
			"Country music", "Hip hop music", "Electronic music", "House music",
			"Techno", "Reggae", "Ska", "Punk rock", "Heavy metal",
			"Folk music", "Gospel music", "Opera", "R&B", "Soul music",
			"Latin music", "Salsa music", "K-pop", "Indie rock", "Grunge",
			"Bluegrass", "Ambient music", "Disco", "Funk", "Trance music",
			"Drum and bass",
		},
		"Sports and outdoors": {
			"Running", "Marathon running", "Trail running", "Cycling",
			"Mountain biking", "Swimming", "Surfing", "Scuba diving",
			"Snorkeling", "Kayaking", "Canoeing", "Rowing", "Sailing",
			"Rock climbing", "Bouldering", "Hiking", "Backpacking",
			"Camping", "Fishing", "Fly fishing", "Hunting", "Archery",
			"Skiing", "Snowboarding", "Ice skating", "Skateboarding",
			"Basketball", "Baseball", "American football", "Soccer",
			"Tennis", "Golf", "Volleyball", "Badminton", "Table tennis",
			"Boxing", "Martial arts", "Wrestling", "Gymnastics",
			"Weightlifting", "Crossfit", "Pilates", "Triathlon",
			"Horseback riding", "Bowling",
		},
		"Food and drink": {
			"Cooking", "Baking", "Grilling", "Vegetarian cuisine",
			"Vegan cuisine", "Italian cuisine", "Mexican cuisine",
			"Chinese cuisine", "Japanese cuisine", "Thai cuisine",
			"Indian cuisine", "French cuisine", "Mediterranean cuisine",
			"Korean cuisine", "Barbecue", "Seafood", "Sushi", "Pizza",
			"Burgers", "Street food", "Fine dining", "Fast food",
			"Coffee", "Espresso", "Tea", "Craft beer", "Wine",
			"Whisky", "Cocktails", "Smoothies", "Organic food",
			"Gluten-free diet", "Ketogenic diet", "Paleo diet", "Desserts",
		},
		"Entertainment": {
			"Action movies", "Comedy movies", "Drama movies", "Horror movies",
			"Science fiction movies", "Documentary films", "Animated films",
			"Independent films", "Bollywood", "Anime", "Manga",
			"Stand-up comedy", "Theatre", "Musicals", "Ballet",
			"Television dramas", "Reality television", "Game shows",
			"Talk shows", "Soap operas", "Podcasts", "Audiobooks",
			"Celebrity news", "Film festivals", "Concerts", "Music festivals",
			"Nightclubs", "Comic books", "Superheroes", "Fantasy fiction",
			"Mystery fiction", "Romance novels", "Poetry", "Short stories",
		},
		"Technology": {
			"Smartphones", "Tablet computers", "Laptops", "Desktop computers",
			"Wearable technology", "Smart home devices", "Virtual reality",
			"Augmented reality", "Artificial intelligence", "Robotics",
			"3D printing", "Drones", "Cryptocurrency", "Blockchain",
			"Open source software", "Computer programming", "Web development",
			"Mobile app development", "Video game development", "Cybersecurity",
			"Cloud computing", "Big data", "Gadgets", "Consumer electronics",
			"Digital cameras", "Home audio", "Headphones", "E-readers",
		},
		"Travel": {
			"Adventure travel", "Air travel", "Backpacking travel", "Beaches",
			"Budget travel", "Business travel", "Cruises", "Ecotourism",
			"Family vacations", "Honeymoons", "Hotels", "Lakes",
			"Luxury travel", "Mountains", "National parks", "Road trips",
			"Solo travel", "Theme parks", "Tourism", "Vacation rentals",
			"Weekend getaways", "Winter travel", "Train travel", "Camper vans",
		},
		"Fashion and beauty": {
			"Fashion design", "Haute couture", "Streetwear", "Vintage clothing",
			"Sneakers", "Handbags", "Jewelry", "Watches", "Sunglasses",
			"Cosmetics", "Skincare", "Haircare", "Perfume", "Nail art",
			"Tattoos", "Piercings", "Modeling", "Fashion photography",
			"Sustainable fashion", "Fast fashion",
		},
		"Family and relationships": {
			"Parenting", "Motherhood", "Fatherhood", "Grandparenting",
			"Adoption", "Childcare", "Homeschooling", "Weddings",
			"Dating", "Online dating", "Friendship", "Pet adoption",
			"Dog ownership", "Cat ownership", "Aquariums", "Pet training",
		},
		"Business and industry": {
			"Entrepreneurship", "Startups", "Small business", "Marketing",
			"Digital marketing", "Advertising", "Sales", "Real estate investing",
			"Stock market", "Personal finance", "Retirement planning",
			"Accounting", "Human resources", "Supply chain management",
			"Agriculture", "Construction industry", "Manufacturing",
			"Renewable energy", "Oil and gas", "Banking", "Insurance industry",
			"E-commerce", "Franchising", "Nonprofit organizations",
		},
		"Fitness and wellness": {
			"Physical fitness", "Bodybuilding", "Aerobics", "Zumba",
			"Spinning", "Personal training", "Nutrition", "Dieting",
			"Weight loss", "Mental health awareness", "Mindfulness",
			"Sleep health", "Massage", "Spas", "Alternative medicine",
			"Chiropractic", "Acupuncture", "Veganism", "Juicing", "Fasting",
		},
		"Home and garden": {
			"Interior design", "Home improvement", "DIY projects",
			"Furniture", "Home appliances", "Landscaping", "Vegetable gardening",
			"Flower gardening", "Houseplants", "Home organization",
			"Feng shui", "Tiny houses", "Smart lighting", "Home security",
			"Kitchen remodeling", "Bathroom remodeling",
		},
		"Vehicles": {
			"Cars", "Sports cars", "Electric vehicles", "Hybrid vehicles",
			"Motorcycles", "Trucks", "SUVs", "Classic cars", "Car tuning",
			"Auto racing", "Formula One", "NASCAR", "Car detailing",
			"Boats", "RVs",
		},
		"Science and education": {
			"Physics", "Chemistry", "Biology", "Mathematics", "Space exploration",
			"Climate science", "Oceanography", "Geology", "Archaeology",
			"History", "World history", "Philosophy", "Psychology",
			"Economics", "Linguistics", "Foreign languages", "Online courses",
			"Museums", "Libraries", "Science fiction literature",
		},
		"Shopping": {
			"Online shopping", "Coupons", "Discount stores", "Luxury goods",
			"Flea markets", "Thrift stores", "Auctions", "Black Friday",
			"Gift cards", "Loyalty programs", "Window shopping", "Boutiques",
		},
		"Games": {
			"Video games", "Console games", "PC games", "Mobile games",
			"Massively multiplayer online games", "First-person shooters",
			"Role-playing games", "Strategy games", "Sports games",
			"Racing games", "Puzzle video games", "Esports", "Game streaming",
			"Retro gaming", "Tabletop role-playing games", "Poker",
			"Casino games", "Fantasy sports",
		},
	}
	// Deterministic ordering over map: fixed topic order.
	topicOrder := []string{
		"Hobbies and activities", "Music", "Sports and outdoors",
		"Food and drink", "Entertainment", "Technology", "Travel",
		"Fashion and beauty", "Family and relationships",
		"Business and industry", "Fitness and wellness", "Home and garden",
		"Vehicles", "Science and education", "Shopping", "Games",
	}
	for _, topic := range topicOrder {
		b.addAll(SourcePlatform, topic, "", interestTopics[topic])
	}

	b.addAll(SourcePlatform, "Digital activities", "", []string{
		"Facebook page admins", "Event creators", "Small business page admins",
		"Technology early adopters", "Online spenders", "Frequent online gamers",
		"Uses a mobile device (iOS)", "Uses a mobile device (Android)",
		"Uses a feature phone", "New smartphone and tablet users",
		"Primarily accesses via mobile", "Primarily accesses via desktop",
		"Uses 2G network", "Uses 3G network", "Uses 4G network",
		"Uses Wi-Fi only", "Browser: Chrome users", "Browser: Safari users",
		"Browser: Firefox users", "Email domain: gmail.com",
		"Email domain: yahoo.com", "Email domain: hotmail.com",
		"Console gamers", "Canvas gamers", "Plays games weekly",
		"Returned from travel 1 week ago", "Returned from travel 2 weeks ago",
		"Frequent travellers", "Frequent international travellers",
		"Commuters", "Currently travelling", "Lives abroad",
	})

	b.addAll(SourcePlatform, "Expats", "", []string{
		"Expats (all)", "Expats (India)", "Expats (Mexico)", "Expats (China)",
		"Expats (Philippines)", "Expats (Brazil)", "Expats (UK)",
		"Expats (Canada)", "Expats (Germany)", "Expats (France)",
		"Expats (Italy)", "Expats (Spain)", "Expats (Vietnam)",
		"Expats (South Korea)", "Expats (Nigeria)", "Expats (Poland)",
	})

	// Categorical platform attributes: these exercise the bit-split scheme.
	b.addFull(Attribute{
		ID: "platform.demographics.life_stage", Name: "Life stage segment",
		Category: "Demographics", Source: SourcePlatform, Kind: Categorical,
		Values: []string{
			"fresh start", "starting out", "young family", "established family",
			"empty nester", "golden years", "student life", "single and settled",
		},
	})
	b.addFull(Attribute{
		ID: "platform.demographics.device_price_tier", Name: "Device price tier",
		Category: "Demographics", Source: SourcePlatform, Kind: Categorical,
		Values: []string{"budget", "mid-range", "premium", "flagship"},
	})

	// Pad with additional generated interest clusters to hit the exact
	// published count. These mirror the long tail of auto-generated
	// interest nodes the real platform derives from page topics.
	need := NumPlatformAttrs - (len(b.attrs) - start)
	if need < 0 {
		panic(fmt.Sprintf("attr: platform catalog overfull by %d", -need))
	}
	adjectives := []string{
		"Local", "Independent", "Vintage", "Modern", "Outdoor", "Urban",
		"Artisanal", "Seasonal", "Regional", "Community", "Amateur",
		"Professional", "Sustainable", "Traditional",
	}
	nouns := []string{
		"theatre", "farming", "cinema", "crafts", "markets", "choirs",
		"athletics", "festivals", "cuisine", "workshops", "orchards",
		"breweries", "galleries", "railways", "wildlife", "architecture",
		"fairs", "museums", "bands", "libraries",
	}
	made := 0
	for _, adj := range adjectives {
		for _, noun := range nouns {
			if made >= need {
				break
			}
			b.add(SourcePlatform, "Interest clusters", "", adj+" "+noun)
			made++
		}
		if made >= need {
			break
		}
	}
	if made < need {
		panic(fmt.Sprintf("attr: platform pad exhausted, still need %d", need-made))
	}
}

func buildPartnerAttrs(b *catalogBuilder) {
	start := len(b.attrs)
	pi := 0
	padd := func(category string, names []string) {
		for _, n := range names {
			b.add(SourcePartner, category, brokerFor(pi), n)
			pi++
		}
	}

	// Financial: the net-worth bands include the "$2M+" band of Figure 1.
	padd("Financial", []string{
		"Net worth: less than $1", "Net worth: $1 to $24,999",
		"Net worth: $25,000 to $49,999", "Net worth: $50,000 to $99,999",
		"Net worth: $100,000 to $249,999", "Net worth: $250,000 to $499,999",
		"Net worth: $500,000 to $999,999", "Net worth: $1,000,000 to $2,000,000",
		"Net worth: over $2,000,000",
		"Household income: less than $30,000", "Household income: $30,000 to $39,999",
		"Household income: $40,000 to $49,999", "Household income: $50,000 to $74,999",
		"Household income: $75,000 to $99,999", "Household income: $100,000 to $124,999",
		"Household income: $125,000 to $149,999", "Household income: $150,000 to $249,999",
		"Household income: $250,000 to $349,999", "Household income: $350,000 to $499,999",
		"Household income: over $500,000",
		"Liquid assets: $1 to $24,999", "Liquid assets: $25,000 to $99,999",
		"Liquid assets: $100,000 to $249,999", "Liquid assets: $250,000 to $499,999",
		"Liquid assets: $500,000 to $999,999", "Liquid assets: over $1,000,000",
		"Investments: active investor", "Investments: mutual funds",
		"Investments: stocks and bonds", "Investments: real estate",
		"Investments: annuities", "Investments: IRA holder",
		"Credit cards: premium card holder", "Credit cards: travel rewards card",
		"Credit cards: cash back card", "Credit cards: store card holder",
		"Credit cards: new card within 6 months", "Credit cards: high spender",
		"Insurance: likely to switch auto insurer", "Insurance: term life policy holder",
		"Insurance: whole life policy holder", "Insurance: Medicare supplement shopper",
		"Banking: online banking user", "Banking: credit union member",
		"Mortgage: first mortgage holder", "Mortgage: refinanced recently",
		"Charitable giving: high-dollar donor",
	})

	padd("Residential profiles", []string{
		"Home type: single family dwelling", "Home type: multi family dwelling",
		"Home type: condominium", "Home type: townhouse",
		"Home type: mobile home", "Home type: apartment",
		"Home type: farm or ranch", "Home type: marine dwelling",
		"Home ownership: homeowner", "Home ownership: renter",
		"Home ownership: first time homebuyer",
		"Home value: less than $100,000", "Home value: $100,000 to $199,999",
		"Home value: $200,000 to $299,999", "Home value: $300,000 to $499,999",
		"Home value: $500,000 to $699,999", "Home value: $700,000 to $999,999",
		"Home value: $1,000,000 or more",
		"Length of residence: less than 1 year", "Length of residence: 1-2 years",
		"Length of residence: 3-5 years", "Length of residence: 6-10 years",
		"Length of residence: over 10 years",
		"Household size: 1 person", "Household size: 2 persons",
		"Household size: 3-4 persons", "Household size: 5 or more persons",
		"Presence of children: yes", "Presence of veterans in home",
		"Likely to move", "Recently moved (broker sourced)",
		"New homeowner within 12 months", "Pool owner", "Pet owner (broker sourced)",
	})

	padd("Job role", []string{
		"Job role: corporate executive", "Job role: middle management",
		"Job role: technology professional", "Job role: healthcare professional",
		"Job role: legal professional", "Job role: financial professional",
		"Job role: sales professional", "Job role: skilled trades",
		"Job role: clerical and administrative", "Job role: educator",
		"Job role: civil servant", "Job role: farmer or rancher",
		"Job role: military personnel", "Job role: retired",
		"Job role: self-employed", "Job role: homemaker",
		"Job role: student (broker sourced)", "Job role: graduate student",
		"Job role: nurse", "Job role: engineer", "Job role: scientist",
		"Job role: pilot", "Job role: real estate agent", "Job role: clergy",
	})

	padd("Automotive", []string{
		"In market for: new economy car", "In market for: new mid-size car",
		"In market for: new full-size car", "In market for: new luxury car",
		"In market for: new near-luxury car", "In market for: new sports car",
		"In market for: new SUV", "In market for: new crossover",
		"In market for: new minivan", "In market for: new pickup truck",
		"In market for: new hybrid vehicle", "In market for: new electric vehicle",
		"In market for: used vehicle under $10k", "In market for: used vehicle $10k-$20k",
		"In market for: used vehicle over $20k", "In market for: motorcycle",
		"Likely to purchase a vehicle within 90 days",
		"Likely to purchase a vehicle within 180 days",
		"Owner: economy car", "Owner: luxury car", "Owner: SUV",
		"Owner: pickup truck", "Owner: minivan", "Owner: motorcycle",
		"Owner: hybrid vehicle", "Owner: electric vehicle",
		"Owner: vehicle over 10 years old", "Owner: more than 2 vehicles",
		"Aftermarket parts buyer", "Auto service: dealership loyalist",
		"Auto service: independent shop user", "Auto insurance expires within 60 days",
	})

	padd("Travel (broker sourced)", []string{
		"Frequent flyer program member", "Business traveller (broker sourced)",
		"Leisure traveller: domestic", "Leisure traveller: international",
		"Cruise enthusiast", "All-inclusive resort traveller",
		"Timeshare owner", "Hotel loyalty program member",
		"Casino vacationer", "Theme park visitor", "Ski vacationer",
		"Beach vacationer", "RV traveller", "Travels with children",
		"Books travel online", "Uses travel agents", "Last-minute traveller",
		"Luxury hotel guest",
	})

	padd("Charitable donations", []string{
		"Donates to charity (all)", "Donates to animal welfare",
		"Donates to arts and culture", "Donates to children's causes",
		"Donates to environmental causes", "Donates to health charities",
		"Donates to international aid", "Donates to political causes",
		"Donates to religious organizations", "Donates to veterans' causes",
		"Donates by mail", "Donates online", "Volunteer (broker sourced)",
	})

	padd("Media consumption", []string{
		"Heavy cable TV viewer", "Cord cutter", "Streaming service subscriber",
		"Satellite radio subscriber", "Newspaper subscriber",
		"Magazine subscriber: news", "Magazine subscriber: lifestyle",
		"Magazine subscriber: sports", "Talk radio listener",
		"Heavy internet user", "Direct mail responder", "Catalog shopper",
		"Sweepstakes entrant", "Completes consumer surveys",
	})

	// Purchase behaviour is by far the largest partner segment family in
	// the real catalog (Oracle DLX / Acxiom buyer segments), and the one
	// the paper's validation surfaced ("kinds of restaurants purchased at",
	// "kinds of apparel purchased"). Generate the buyer segments as a
	// deterministic cross product and fill the remainder of the 507 slots.
	restaurantKinds := []string{
		"fast food restaurants", "casual dining restaurants",
		"fine dining restaurants", "family restaurants", "pizza restaurants",
		"coffee shops", "ethnic restaurants", "steakhouses",
		"seafood restaurants", "buffet restaurants",
	}
	for _, k := range restaurantKinds {
		b.add(SourcePartner, "Purchase behavior", brokerFor(pi), "Purchases at "+k)
		pi++
	}
	apparelKinds := []string{
		"women's apparel", "men's apparel", "children's apparel",
		"athletic apparel", "business apparel", "luxury apparel",
		"discount apparel", "plus-size apparel", "young adult apparel",
		"outerwear", "footwear", "accessories",
	}
	for _, k := range apparelKinds {
		b.add(SourcePartner, "Purchase behavior", brokerFor(pi), "Buys "+k)
		pi++
	}

	buyerModifiers := []string{
		"frequent buyer of", "premium buyer of", "discount buyer of",
		"online buyer of", "in-store buyer of", "seasonal buyer of",
		"brand-loyal buyer of", "first-time buyer of",
	}
	buyerProducts := []string{
		"groceries", "organic groceries", "pet food", "pet supplies",
		"baby products", "toys", "video games", "consumer electronics",
		"home computers", "mobile phones", "small kitchen appliances",
		"major appliances", "furniture", "home decor", "bedding and bath",
		"lawn and garden products", "tools and hardware", "automotive supplies",
		"sporting goods", "outdoor gear", "exercise equipment", "bicycles",
		"books", "music", "movies", "magazines", "arts and crafts supplies",
		"office supplies", "beauty products", "cosmetics", "fragrances",
		"skin care products", "hair care products", "vitamins and supplements",
		"over-the-counter medicine", "health products", "jewelry", "watches",
		"handbags", "sunglasses", "fine wine", "craft beer", "spirits",
		"tobacco products", "snack foods", "soft drinks", "energy drinks",
		"coffee and tea", "frozen foods", "prepared meals", "diet products",
		"gift items", "greeting cards", "party supplies", "travel services",
		"photography equipment", "musical instruments",
	}
	need := NumPartnerAttrs - (len(b.attrs) - start)
	if need < 0 {
		panic(fmt.Sprintf("attr: partner catalog overfull by %d", -need))
	}
	made := 0
	for _, prod := range buyerProducts {
		for _, mod := range buyerModifiers {
			if made >= need {
				break
			}
			name := strings.ToUpper(mod[:1]) + mod[1:] + " " + prod
			b.add(SourcePartner, "Purchase behavior", brokerFor(pi), name)
			pi++
			made++
		}
		if made >= need {
			break
		}
	}
	if made < need {
		panic(fmt.Sprintf("attr: partner pad exhausted, still need %d", need-made))
	}
}
