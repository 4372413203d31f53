package nl

import (
	"fmt"
)

// ClaimVerbs are the interchangeable verbs claim templates may use; the
// parser normalizes all of them to the canonical "recorded" before template
// matching, the way a language model treats synonyms.
var ClaimVerbs = []string{"recorded", "had", "reported"}

// RenderOptions control how a Spec is verbalized. The generator uses these
// to plant hazards: an alias instead of the canonical entity value, an
// underspecified column phrase, or a unit-converted phrase.
type RenderOptions struct {
	// Value is the claim value exactly as it should appear in the text.
	Value string
	// ColumnPhrase overrides the phrase used for Spec.Column (e.g. a short
	// ambiguous phrase or a unit-converted phrase). Empty uses the
	// lexicon's canonical phrase.
	ColumnPhrase string
	// EntityDisplay overrides the surface form of Spec.EntityVal (e.g. an
	// alias that does not occur in the data). Empty uses Spec.EntityVal.
	EntityDisplay string
	// Verb selects the claim verb ("recorded", "had", "reported"); empty
	// uses the canonical "recorded".
	Verb string
}

// Sentence cue fragments shared between rendering and parsing. Keeping them
// as named constants guarantees the two stay inverse operations.
const (
	cueCountAll = "The data covers exactly "
	cueCount    = "Exactly "
	cueSum      = "A total of "
	cueAvg      = "On average, the "
	cueDiff     = "The gap between the highest and the lowest "
	cueMax      = "The highest "
	cueMin      = "The lowest "
	cuePercent  = " percent of the "
	cueArgMax   = " recorded the highest "
	cueArgMin   = " recorded the lowest "
	cueMode     = " is the most common "
	cueRecorded = " recorded "
)

// RenderSentence verbalizes a spec into a claim sentence using the
// templates of the claim language. The sentence always contains opt.Value
// verbatim so the generator can locate the claim-value span.
func RenderSentence(spec *Spec, lex *Lexicon, opt RenderOptions) string {
	v := opt.Value
	colPhrase := opt.ColumnPhrase
	if colPhrase == "" {
		colPhrase = lex.ColumnPhrase(spec.Column)
	}
	var filterPhrase string
	if spec.FilterCol != "" {
		filterPhrase = lex.ColumnPhrase(spec.FilterCol)
	}
	entity := opt.EntityDisplay
	if entity == "" {
		entity = spec.EntityVal
	}
	noun := spec.Noun
	verb := opt.Verb
	if verb == "" {
		verb = "recorded"
	}

	switch spec.Kind {
	case KindLookup:
		return fmt.Sprintf("%s %s %s %s.", entity, verb, v, colPhrase)
	case KindCountAll:
		return fmt.Sprintf("%s%s %s.", cueCountAll, v, noun)
	case KindCount:
		return fmt.Sprintf("%s%s %s %s %s of %s.", cueCount, v, noun, verb, filterPhrase, spec.FilterVal)
	case KindSum:
		if spec.FilterCol != "" {
			return fmt.Sprintf("%s%s %s were recorded across %s with %s of %s.",
				cueSum, v, colPhrase, noun, filterPhrase, spec.FilterVal)
		}
		return fmt.Sprintf("%s%s %s were recorded across all %s.", cueSum, v, colPhrase, noun)
	case KindAvg:
		if spec.FilterCol != "" {
			return fmt.Sprintf("%s%s with %s of %s %s %s %s.",
				cueAvg, noun, filterPhrase, spec.FilterVal, verb, v, colPhrase)
		}
		return fmt.Sprintf("%s%s %s %s %s.", cueAvg, noun, verb, v, colPhrase)
	case KindMin:
		return fmt.Sprintf("%s%s recorded was %s.", cueMin, colPhrase, v)
	case KindMax:
		return fmt.Sprintf("%s%s recorded was %s.", cueMax, colPhrase, v)
	case KindDiff:
		return fmt.Sprintf("%s%s was %s.", cueDiff, colPhrase, v)
	case KindArgMax:
		return fmt.Sprintf("%s%s%s of all %s.", v, cueArgMax, colPhrase, noun)
	case KindArgMin:
		return fmt.Sprintf("%s%s%s of all %s.", v, cueArgMin, colPhrase, noun)
	case KindPercent:
		return fmt.Sprintf("About %s%s%s %s %s of %s.", v, cuePercent, noun, verb, filterPhrase, spec.FilterVal)
	case KindMode:
		return fmt.Sprintf("%s%s%s among the %s.", v, cueMode, colPhrase, noun)
	}
	return fmt.Sprintf("%s is %s.", colPhrase, v)
}
