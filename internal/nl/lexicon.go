package nl

import "strings"

// ColumnEntry describes how one corpus column surfaces in English.
type ColumnEntry struct {
	// Phrase is the canonical noun phrase for the column ("fatal accidents
	// between 2000 and 2014").
	Phrase string
	// Short is an underspecified variant used to plant ambiguity hazards
	// ("fatal accidents"); empty when the column has no ambiguous sibling.
	Short string
	// Unit names the column's measurement unit ("kilometres"); empty for
	// unitless columns.
	Unit string
}

// UnitConversion describes a convertible unit pair: a value stored in From
// units equals value*Factor in To units.
type UnitConversion struct {
	From   string
	To     string
	Factor float64
}

// Lexicon is the shared vocabulary: how columns, tables, and entities are
// verbalized. It plays the role of general language knowledge — both the
// corpus generator and the simulated models have it, the way both a human
// author and GPT-4 know English.
type Lexicon struct {
	// Columns maps column name (lowercase) to its entry.
	Columns map[string]ColumnEntry
	// Nouns maps table name (lowercase) to the plural noun used for its
	// rows ("airlines" -> "airlines", "drinks" -> "countries").
	Nouns map[string]string
	// Aliases maps a canonical data value (lowercase) to display variants
	// that documents may use instead ("usa" -> "the United States").
	Aliases map[string][]string
	// Units lists the convertible unit pairs.
	Units []UnitConversion

	// compiled holds the parser's per-column derivations of the fields
	// above (compile.go). It fills as columns are parsed against, so those
	// fields must not change once ParseMasked has seen the lexicon.
	compiled columnCache
}

// DefaultLexicon returns the lexicon covering the built-in corpus: one
// shared instance, read-only to every caller, so that what the parser
// compiles from it is compiled once per process rather than once per model.
func DefaultLexicon() *Lexicon { return defaultLexicon }

var defaultLexicon = newDefaultLexicon()

func newDefaultLexicon() *Lexicon {
	return &Lexicon{
		Columns: map[string]ColumnEntry{
			// 538 airline safety
			"airline":                {Phrase: "airline"},
			"avail_seat_km_per_week": {Phrase: "available seat kilometres flown every week", Unit: "kilometres"},
			"incidents_85_99":        {Phrase: "incidents between 1985 and 1999", Short: "incidents"},
			"fatal_accidents_85_99":  {Phrase: "fatal accidents between 1985 and 1999", Short: "fatal accidents"},
			"fatalities_85_99":       {Phrase: "fatalities between 1985 and 1999", Short: "fatalities"},
			"incidents_00_14":        {Phrase: "incidents between 2000 and 2014", Short: "incidents"},
			"fatal_accidents_00_14":  {Phrase: "fatal accidents between 2000 and 2014", Short: "fatal accidents"},
			"fatalities_00_14":       {Phrase: "fatalities between 2000 and 2014", Short: "fatalities"},
			// 538 alcohol consumption
			"country":                      {Phrase: "country"},
			"beer_servings":                {Phrase: "servings of beer consumed per person"},
			"spirit_servings":              {Phrase: "servings of spirits consumed per person"},
			"wine_servings":                {Phrase: "glasses of wine consumed per person"},
			"total_litres_of_pure_alcohol": {Phrase: "litres of pure alcohol consumed per person", Unit: "litres"},
			// StackOverflow survey
			"language":                {Phrase: "programming language"},
			"developers_using":        {Phrase: "developers using the language"},
			"avg_salary_usd":          {Phrase: "average salary in dollars", Unit: "dollars"},
			"satisfaction_score":      {Phrase: "satisfaction score"},
			"years_experience_avg":    {Phrase: "average years of experience"},
			"respondents":             {Phrase: "survey respondents"},
			"remote_share_pct":        {Phrase: "share of developers working remotely in percent"},
			"open_source_contrib_pct": {Phrase: "share of developers contributing to open source in percent"},
			"job_seeking_pct":         {Phrase: "share of developers seeking a new job in percent"},
			"median_age":              {Phrase: "median age of developers"},
			"median_salary_usd":       {Phrase: "median salary in dollars", Unit: "dollars"},
			// NYTimes housing & commute
			"neighborhood":        {Phrase: "neighborhood"},
			"median_rent_usd":     {Phrase: "median monthly rent in dollars", Unit: "dollars"},
			"median_income_usd":   {Phrase: "median household income in dollars", Unit: "dollars"},
			"avg_unit_sqft":       {Phrase: "average apartment size in square feet"},
			"bike_share_pct":      {Phrase: "share of commuters cycling in percent"},
			"founded_year":        {Phrase: "founding year"},
			"population":          {Phrase: "residents"},
			"vacancy_rate_pct":    {Phrase: "vacancy rate in percent"},
			"city":                {Phrase: "city"},
			"avg_commute_minutes": {Phrase: "average commute time in minutes", Unit: "minutes"},
			"transit_share_pct":   {Phrase: "share of commuters using transit in percent"},
			// Wikipedia Formula One
			"driver":        {Phrase: "driver"},
			"wins":          {Phrase: "race wins"},
			"podiums":       {Phrase: "podium finishes"},
			"championships": {Phrase: "world championships"},
			"races_started": {Phrase: "races started"},
			// Wikipedia cities
			"area_km2":    {Phrase: "area in square kilometres", Unit: "square kilometres"},
			"elevation_m": {Phrase: "elevation in metres", Unit: "metres"},
			// Wikipedia movies
			"title":           {Phrase: "film"},
			"director":        {Phrase: "director"},
			"box_office_musd": {Phrase: "box office earnings in millions of dollars", Unit: "millions of dollars"},
			"runtime_min":     {Phrase: "runtime in minutes", Unit: "minutes"},
			"year":            {Phrase: "release year"},
			// TabFact-style sports tables
			"club":          {Phrase: "club"},
			"played":        {Phrase: "matches played"},
			"won":           {Phrase: "matches won"},
			"drawn":         {Phrase: "matches drawn"},
			"lost":          {Phrase: "matches lost"},
			"goals_for":     {Phrase: "goals scored"},
			"goals_against": {Phrase: "goals conceded"},
			"points":        {Phrase: "points earned"},
			// TabFact-style albums
			"album":      {Phrase: "album"},
			"artist":     {Phrase: "artist"},
			"sales_m":    {Phrase: "copies sold in millions"},
			"weeks_no1":  {Phrase: "weeks at number one"},
			"chart_peak": {Phrase: "chart peak position"},
			// JoinBench normalization keys
			"airline_id": {Phrase: "airline identifier"},
			"country_id": {Phrase: "country identifier"},
			"driver_id":  {Phrase: "driver identifier"},
		},
		Nouns: map[string]string{
			"airlines":     "airlines",
			"drinks":       "countries",
			"so_survey":    "programming languages",
			"so_countries": "countries surveyed",
			"housing":      "neighborhoods",
			"commute":      "cities",
			"f1":           "drivers",
			"cities":       "cities",
			"movies":       "films",
			"standings":    "clubs",
			"albums":       "albums",
		},
		Aliases: map[string][]string{
			"usa":                       {"the United States", "America"},
			"uk":                        {"Britain", "the United Kingdom"},
			"netherlands":               {"the Netherlands"},
			"czech republic":            {"Czechia"},
			"south korea":               {"Korea"},
			"united / continental":      {"United Airlines"},
			"delta / northwest":         {"Delta Air Lines"},
			"us airways / america west": {"US Airways"},
			"all nippon airways":        {"All Nippon"},
			"japan airlines":            {"Japan Air"},
			"southwest airlines":        {"Southwest"},
			"american airlines":         {"American Air"},
			"alaska airlines":           {"Alaska Air"},
			"turkish airlines":          {"Turkish Air"},
			"british airways":           {"British Air"},
			"new york city":             {"NYC"},
			"javascript":                {"JS"},
			"c#":                        {"C Sharp"},
			"go":                        {"Golang"},
			"lewis hamilton":            {"Hamilton"},
			"michael schumacher":        {"Schumacher"},
			"max verstappen":            {"Verstappen"},
			"juan manuel fangio":        {"Fangio"},
			"sebastian vettel":          {"Vettel"},
			"fernando alonso":           {"Alonso"},
			"bedford-stuyvesant":        {"Bed-Stuy"},
			"morningside heights":       {"Morningside"},
			"battery park city":         {"Battery Park"},
		},
		Units: []UnitConversion{
			{From: "kilometres", To: "miles", Factor: 0.621371},
			{From: "square kilometres", To: "square miles", Factor: 0.386102},
			{From: "metres", To: "feet", Factor: 3.28084},
			{From: "litres", To: "gallons", Factor: 0.264172},
			{From: "minutes", To: "hours", Factor: 1.0 / 60},
			{From: "dollars", To: "thousands of dollars", Factor: 0.001},
			{From: "millions of dollars", To: "dollars", Factor: 1e6},
		},
	}
}

// ColumnPhrase returns the canonical phrase of a column, falling back to the
// column name with underscores replaced by spaces (what an LLM would do with
// an unknown header).
func (l *Lexicon) ColumnPhrase(col string) string {
	if e, ok := l.Columns[strings.ToLower(col)]; ok && e.Phrase != "" {
		return e.Phrase
	}
	return strings.ReplaceAll(strings.ToLower(col), "_", " ")
}

// ColumnUnit returns the unit of a column, or "".
func (l *Lexicon) ColumnUnit(col string) string {
	return l.Columns[strings.ToLower(col)].Unit
}

// ShortPhrase returns the ambiguous short phrase of a column, or "" when the
// column has none.
func (l *Lexicon) ShortPhrase(col string) string {
	return l.Columns[strings.ToLower(col)].Short
}

// TableNoun returns the plural noun for a table's rows, falling back to the
// table name.
func (l *Lexicon) TableNoun(table string) string {
	if n, ok := l.Nouns[strings.ToLower(table)]; ok {
		return n
	}
	return strings.ToLower(table)
}

// AliasesFor returns the display variants of a canonical data value
// (excluding the value itself), or nil.
func (l *Lexicon) AliasesFor(value string) []string {
	return l.Aliases[strings.ToLower(value)]
}

// ConvertedUnitFor returns the alternative unit a column's values can be
// expressed in, with the factor, or ok=false for unitless columns.
func (l *Lexicon) ConvertedUnitFor(col string) (unit string, factor float64, ok bool) {
	base := l.ColumnUnit(col)
	if base == "" {
		return "", 0, false
	}
	for _, u := range l.Units {
		if u.From == base {
			return u.To, u.Factor, true
		}
	}
	return "", 0, false
}

// EntityColumnNames lists column names that identify entities; the parser
// uses it to guess filter columns the way an LLM guesses from headers.
var entityColumnNames = map[string]bool{
	"airline": true, "country": true, "language": true, "neighborhood": true,
	"city": true, "driver": true, "title": true, "director": true,
	"club": true, "album": true, "artist": true, "name": true, "team": true,
}

// IsEntityColumn reports whether a column name identifies entities.
func IsEntityColumn(name string) bool {
	return entityColumnNames[strings.ToLower(name)]
}

// EntityColumnOf returns the entity column of a schema table, preferring
// known entity names, then any TEXT column, then "".
func EntityColumnOf(t *SchemaTable) string {
	for _, c := range t.Columns {
		if IsEntityColumn(c.Name) {
			return c.Name
		}
	}
	for _, c := range t.Columns {
		if strings.EqualFold(c.Type, "TEXT") {
			return c.Name
		}
	}
	return ""
}
