// Package data generates the benchmark corpora the experiments run on. The
// paper evaluates on AggChecker (real newspaper/Wikipedia articles), TabFact
// (Wikipedia tables), WikiText (textual Wikipedia claims), JoinBench
// (normalized AggChecker schemas), and a unit-conversion benchmark; those
// corpora are external artifacts, so this package builds synthetic
// equivalents with the same shape: the same document/claim counts, claim
// kinds matching the query-complexity profile of Table 3, the same domain
// structure (538 / StackOverflow / NYTimes / Wikipedia) used by Figure 7,
// and planted hazards (entity aliases, ambiguous phrases, unit mismatches)
// that exercise the failure-and-recovery paths of the verification methods.
package data

import (
	"fmt"
	"math/rand"

	"repro/internal/sqldb"
)

// Domain labels matching the claim sources of the AggChecker data set.
const (
	Domain538           = "538"
	DomainStackOverflow = "StackOverflow"
	DomainNYTimes       = "NYTimes"
	DomainWikipedia     = "Wikipedia"
)

// tableSpec declares one corpus table: its entity column and the numeric
// measure columns with their value ranges.
type tableSpec struct {
	name     string
	noun     string
	entity   string   // entity column name
	entities []string // entity value pool
	measures []measureSpec
	extraTex []textColSpec // additional text columns (e.g. f1 country)
}

type measureSpec struct {
	name string
	lo   float64
	hi   float64
	// integer forces integral values.
	integer bool
}

type textColSpec struct {
	name string
	pool []string
}

var airlinePool = []string{
	"Aer Lingus", "Aeroflot", "Air Canada", "Air France", "Alaska Airlines",
	"All Nippon Airways", "American Airlines", "British Airways", "Cathay Pacific",
	"Delta / Northwest", "Emirates", "Finnair", "Garuda Indonesia", "Iberia",
	"Japan Airlines", "KLM", "Korean Air", "Lufthansa", "Malaysia Airlines",
	"Qantas", "Singapore Airlines", "Southwest Airlines", "TAP Portugal",
	"Turkish Airlines", "United / Continental", "US Airways / America West",
}

var countryPool = []string{
	"France", "USA", "Germany", "Italy", "Spain", "Portugal", "UK",
	"Ireland", "Belgium", "Netherlands", "Austria", "Switzerland", "Poland",
	"Czech Republic", "Hungary", "Greece", "Sweden", "Norway", "Denmark",
	"Finland", "Australia", "Japan", "Brazil", "Argentina", "Canada",
	"Mexico", "Chile", "Peru", "Colombia", "South Africa", "Egypt",
	"Morocco", "India", "China", "South Korea", "Thailand", "Vietnam",
	"New Zealand", "Iceland", "Croatia",
}

var languagePool = []string{
	"JavaScript", "Python", "Java", "C#", "PHP", "C++", "TypeScript",
	"Ruby", "Swift", "Kotlin", "Go", "Rust", "Scala", "R", "Perl",
	"Haskell", "Elixir", "Clojure", "Dart", "Lua", "Julia", "Fortran",
	"COBOL", "Erlang", "F#",
}

var neighborhoodPool = []string{
	"Harlem", "Astoria", "Williamsburg", "Park Slope", "Bushwick",
	"Flushing", "Riverdale", "Tribeca", "SoHo", "Chelsea", "Greenpoint",
	"Inwood", "Bayside", "Flatbush", "Sunnyside", "Red Hook", "Kips Bay",
	"Morningside Heights", "Jackson Heights", "Forest Hills", "Crown Heights",
	"Bedford-Stuyvesant", "Long Island City", "Murray Hill", "East Village",
	"West Village", "Upper East Side", "Upper West Side", "Financial District",
	"Battery Park City", "Gramercy", "Hell's Kitchen", "Washington Heights",
	"Fort Greene", "Boerum Hill",
}

var cityPool = []string{
	"New York City", "Los Angeles", "Chicago", "Houston", "Phoenix",
	"Philadelphia", "San Antonio", "San Diego", "Dallas", "Denver",
	"Seattle", "Boston", "Detroit", "Portland", "Atlanta",
	"Miami", "Minneapolis", "Austin", "Nashville", "Baltimore",
	"Charlotte", "Columbus", "Indianapolis", "Memphis", "Milwaukee",
	"Kansas City", "Sacramento", "Tucson", "Fresno", "Omaha",
	"Raleigh", "Oakland", "Tampa", "Pittsburgh", "Cincinnati",
	"St. Louis", "Orlando", "Cleveland", "Buffalo", "Richmond",
}

var driverPool = []string{
	"Lewis Hamilton", "Michael Schumacher", "Sebastian Vettel", "Alain Prost",
	"Ayrton Senna", "Fernando Alonso", "Nigel Mansell", "Jackie Stewart",
	"Niki Lauda", "Jim Clark", "Juan Manuel Fangio", "Nelson Piquet",
	"Mika Hakkinen", "Kimi Raikkonen", "Jenson Button", "Damon Hill",
	"Giuseppe Farina", "Max Verstappen", "Valtteri Bottas", "Daniel Ricciardo",
	"Charles Leclerc", "Lando Norris", "Carlos Sainz", "Sergio Perez",
	"George Russell", "Felipe Massa", "Rubens Barrichello", "David Coulthard",
	"Gerhard Berger", "Jacques Villeneuve", "Mario Andretti", "James Hunt",
	"Emerson Fittipaldi", "Jack Brabham",
}

var moviePool = []string{
	"The Grand Voyage", "Midnight Harbor", "Silent Echoes", "The Last Meridian",
	"Paper Lanterns", "Crimson Tide Rising", "The Glass Orchard", "Northern Lights",
	"A Winter's Tale", "The Cartographer", "Salt and Stone", "The Violet Hour",
	"Harvest Moon", "The Long Goodbye", "Ashes of Time",
	"The Quiet Shore", "Ember and Oak", "The Seventh Bridge", "Lanterns at Dusk",
	"The Painted Desert", "A Thousand Rivers", "The Clockmaker's Daughter",
	"Shadows of August", "The Distant Bell", "Golden Meridian", "The Iron Coast",
	"Whispering Pines", "The Amber Road", "Falling Lightly", "The Night Garden",
	"Cedar and Smoke", "The Hollow Crown", "Saltwater Letters", "The Blue Hour",
	"Fields of Glass", "The Winter Orchard", "Miles from Nowhere", "The Paper Sky",
	"Driftwood", "The Last Cartograph",
}

var directorPool = []string{
	"Ava Lindqvist", "Marco Benedetti", "Sofia Andersson", "James Okafor",
	"Yuki Tanaka", "Elena Petrova", "Carlos Mendez", "Ingrid Bauer",
}

var clubPool = []string{
	"Riverside FC", "Northgate United", "Harbor City", "Western Rovers",
	"Lakeshore Athletic", "Eastfield Town", "Summit Rangers", "Valley Wanderers",
	"Old Quarter FC", "Millbrook City", "Crestwood United", "Southport FC",
}

var albumPool = []string{
	"Neon Skylines", "Paper Hearts", "Midnight Reverie", "Golden Hour",
	"Static Bloom", "Violet Tides", "Echo Chamber", "Wildflower Season",
	"Glass Houses", "Polar Nights", "Velvet Morning", "Silver Linings",
}

var artistPool = []string{
	"The Lanterns", "Mira Sol", "Cobalt Drive", "June & the Harbor",
	"Foxglove", "Arcadia Line", "The Night Owls", "Scarlet Avenue",
}

// corpusTables declares every base table of the corpus keyed by name.
var corpusTables = map[string]tableSpec{
	"airlines": {
		name: "airlines", noun: "airlines", entity: "airline", entities: airlinePool,
		measures: []measureSpec{
			{name: "avail_seat_km_per_week", lo: 3e8, hi: 7e9, integer: true},
			// The 85-99 and 00-14 sibling columns deliberately live in
			// different magnitude bands: picking the wrong sibling then
			// fails the order-of-magnitude plausibility gate and escalates
			// rather than silently mis-verifying.
			{name: "incidents_85_99", lo: 140, hi: 980, integer: true},
			{name: "fatal_accidents_85_99", lo: 40, hi: 140, integer: true},
			{name: "fatalities_85_99", lo: 2100, hi: 9500, integer: true},
			{name: "incidents_00_14", lo: 0, hi: 24, integer: true},
			{name: "fatal_accidents_00_14", lo: 0, hi: 3, integer: true},
			{name: "fatalities_00_14", lo: 0, hi: 537, integer: true},
		},
	},
	"drinks": {
		name: "drinks", noun: "countries", entity: "country", entities: countryPool,
		measures: []measureSpec{
			{name: "beer_servings", lo: 20, hi: 380, integer: true},
			{name: "spirit_servings", lo: 10, hi: 300, integer: true},
			{name: "wine_servings", lo: 5, hi: 370, integer: true},
			{name: "total_litres_of_pure_alcohol", lo: 0.5, hi: 14.5},
		},
	},
	"so_survey": {
		name: "so_survey", noun: "programming languages", entity: "language", entities: languagePool,
		measures: []measureSpec{
			{name: "developers_using", lo: 1200, hi: 68000, integer: true},
			{name: "avg_salary_usd", lo: 42000, hi: 135000, integer: true},
			{name: "satisfaction_score", lo: 2.1, hi: 4.9},
			{name: "years_experience_avg", lo: 2.5, hi: 14.0},
			{name: "remote_share_pct", lo: 8, hi: 72, integer: true},
			{name: "open_source_contrib_pct", lo: 5, hi: 55, integer: true},
			{name: "job_seeking_pct", lo: 10, hi: 65, integer: true},
			{name: "median_age", lo: 24, hi: 41, integer: true},
			{name: "respondents", lo: 400, hi: 24000, integer: true},
		},
	},
	"housing": {
		name: "housing", noun: "neighborhoods", entity: "neighborhood", entities: neighborhoodPool,
		measures: []measureSpec{
			{name: "median_rent_usd", lo: 1100, hi: 4300, integer: true},
			{name: "population", lo: 4700, hi: 270000, integer: true},
			{name: "vacancy_rate_pct", lo: 1.1, hi: 9.8},
			{name: "median_income_usd", lo: 31000, hi: 185000, integer: true},
			{name: "avg_unit_sqft", lo: 420, hi: 1600, integer: true},
		},
	},
	"commute": {
		name: "commute", noun: "cities", entity: "city", entities: cityPool,
		measures: []measureSpec{
			{name: "avg_commute_minutes", lo: 18, hi: 52, integer: true},
			{name: "transit_share_pct", lo: 2, hi: 57, integer: true},
			{name: "bike_share_pct", lo: 1, hi: 12, integer: true},
			{name: "population", lo: 600000, hi: 8500000, integer: true},
		},
	},
	"f1": {
		name: "f1", noun: "drivers", entity: "driver", entities: driverPool,
		extraTex: []textColSpec{{name: "country", pool: countryPool}},
		measures: []measureSpec{
			{name: "wins", lo: 0, hi: 105, integer: true},
			{name: "podiums", lo: 0, hi: 202, integer: true},
			{name: "championships", lo: 0, hi: 7, integer: true},
			{name: "races_started", lo: 10, hi: 360, integer: true},
		},
	},
	"cities": {
		name: "cities", noun: "cities", entity: "city", entities: cityPool,
		measures: []measureSpec{
			{name: "population", lo: 600000, hi: 8500000, integer: true},
			{name: "area_km2", lo: 120, hi: 1700},
			{name: "elevation_m", lo: 2, hi: 1610, integer: true},
			{name: "founded_year", lo: 1620, hi: 1910, integer: true},
		},
	},
	"movies": {
		name: "movies", noun: "films", entity: "title", entities: moviePool,
		extraTex: []textColSpec{{name: "director", pool: directorPool}},
		measures: []measureSpec{
			{name: "year", lo: 1978, hi: 2024, integer: true},
			{name: "box_office_musd", lo: 1.2, hi: 940},
			{name: "runtime_min", lo: 81, hi: 192, integer: true},
		},
	},
	"standings": {
		name: "standings", noun: "clubs", entity: "club", entities: clubPool,
		measures: []measureSpec{
			{name: "played", lo: 30, hi: 38, integer: true},
			{name: "won", lo: 2, hi: 28, integer: true},
			{name: "drawn", lo: 0, hi: 15, integer: true},
			{name: "lost", lo: 1, hi: 25, integer: true},
			{name: "goals_for", lo: 18, hi: 95, integer: true},
			{name: "goals_against", lo: 15, hi: 88, integer: true},
			{name: "points", lo: 10, hi: 93, integer: true},
		},
	},
	"albums": {
		name: "albums", noun: "albums", entity: "album", entities: albumPool,
		extraTex: []textColSpec{{name: "artist", pool: artistPool}},
		measures: []measureSpec{
			{name: "sales_m", lo: 0.2, hi: 31},
			{name: "weeks_no1", lo: 0, hi: 19, integer: true},
			{name: "chart_peak", lo: 1, hi: 40, integer: true},
		},
	},
}

// domainTables maps each document domain to the tables it draws from.
var domainTables = map[string][]string{
	Domain538:           {"airlines", "drinks"},
	DomainStackOverflow: {"so_survey"},
	DomainNYTimes:       {"housing", "commute"},
	DomainWikipedia:     {"f1", "cities", "movies"},
	// Synthetic-only domains used by the TabFact and unit-conversion
	// benchmarks.
	"TabFact":  {"standings", "albums"},
	"UnitConv": {"cities", "commute", "movies"},
}

// BuildTable materializes one corpus table with rng-randomized measures over
// a subset of the entity pool. rows caps the entity count (0 = full pool).
func BuildTable(spec tableSpec, rng *rand.Rand, rows int) *sqldb.Table {
	cols := []string{spec.entity}
	for _, tc := range spec.extraTex {
		cols = append(cols, tc.name)
	}
	for _, m := range spec.measures {
		cols = append(cols, m.name)
	}
	t := sqldb.NewTable(spec.name, cols...)
	n := len(spec.entities)
	if rows > 0 && rows < n {
		n = rows
	}
	perm := rng.Perm(len(spec.entities))[:n]
	for _, idx := range perm {
		row := []sqldb.Value{sqldb.Text(spec.entities[idx])}
		for _, tc := range spec.extraTex {
			row = append(row, sqldb.Text(tc.pool[rng.Intn(len(tc.pool))]))
		}
		for _, m := range spec.measures {
			v := m.lo + rng.Float64()*(m.hi-m.lo)
			if m.integer {
				row = append(row, sqldb.Int(int64(v)))
			} else {
				row = append(row, sqldb.Float(float64(int64(v*100))/100))
			}
		}
		t.MustAppendRow(row...)
	}
	return t
}

// BuildDatabase materializes a database containing the named corpus tables.
func BuildDatabase(name string, rng *rand.Rand, rows int, tables ...string) (*sqldb.Database, error) {
	db := sqldb.NewDatabase(name)
	for _, tn := range tables {
		spec, ok := corpusTables[tn]
		if !ok {
			return nil, fmt.Errorf("data: unknown corpus table %q", tn)
		}
		db.AddTable(BuildTable(spec, rng, rows))
	}
	return db, nil
}
