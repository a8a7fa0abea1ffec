// Package doctype classifies web documents into the content classes used
// throughout the study: images, HTML/text, multi media, application, and
// other.
//
// Classification follows Section 2 of the paper: the MIME content type from
// the HTTP response header is authoritative; when no content type is
// recorded, the class is guessed from the file extension of the request URL.
// Plain-text formats such as .tex and .java are folded into the HTML class,
// mirroring the paper's treatment of text documents.
package doctype

import (
	"strings"
)

// Class identifies one of the document classes distinguished by the study.
type Class uint8

// The document classes, in the order the paper's tables list them.
const (
	// Unknown marks a record whose class has not been resolved yet. It is
	// the zero value and never appears in classified output; classification
	// maps unresolvable documents to Other.
	Unknown Class = iota
	// Image covers raster and vector image formats (.gif, .jpeg, .png, ...).
	Image
	// HTML covers markup and plain-text documents (.html, .txt, .tex, ...).
	HTML
	// MultiMedia covers audio and video formats (.mp3, .mpeg, .mov, ...).
	MultiMedia
	// Application covers binary application formats (.ps, .pdf, .zip, ...).
	Application
	// Other covers every document matching none of the classes above.
	Other
)

// NumClasses is the number of distinct classified classes (excluding
// Unknown). Arrays indexed by Class conventionally have length
// NumClasses+1 so that Class values can index them directly.
const NumClasses = 5

// Classes lists all classified classes in table order, for iteration.
var Classes = [NumClasses]Class{Image, HTML, MultiMedia, Application, Other}

// String returns the table heading used by the paper for the class.
func (c Class) String() string {
	switch c {
	case Image:
		return "Images"
	case HTML:
		return "HTML"
	case MultiMedia:
		return "Multi Media"
	case Application:
		return "Application"
	case Other:
		return "Other"
	default:
		return "Unknown"
	}
}

// Short returns a compact lowercase identifier for the class, suitable for
// CSV column names and command-line flags.
func (c Class) Short() string {
	switch c {
	case Image:
		return "image"
	case HTML:
		return "html"
	case MultiMedia:
		return "media"
	case Application:
		return "app"
	case Other:
		return "other"
	default:
		return "unknown"
	}
}

// Classify determines the document class from the response content type and
// the request URL. The content type wins when present; otherwise the class
// is guessed from the URL's file extension, as in Section 2 of the paper.
func Classify(contentType, url string) Class {
	if c := FromContentType(contentType); c != Unknown {
		return c
	}
	if c := FromExtension(ExtensionOf(url)); c != Unknown {
		return c
	}
	return Other
}

// FromContentType maps a MIME content type (possibly carrying parameters,
// e.g. "text/html; charset=utf-8") to a document class. It returns Unknown
// when the content type is empty or carries no class signal, so that the
// caller can fall back to extension-based classification.
func FromContentType(contentType string) Class {
	ct := strings.ToLower(strings.TrimSpace(contentType))
	if ct == "" {
		return Unknown
	}
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = strings.TrimSpace(ct[:i])
	}
	slash := strings.IndexByte(ct, '/')
	if slash < 0 {
		return Unknown
	}
	major, minor := ct[:slash], ct[slash+1:]
	switch major {
	case "image":
		return Image
	case "text":
		return HTML
	case "audio", "video":
		return MultiMedia
	case "application":
		return classifyApplicationSubtype(minor)
	default:
		return Unknown
	}
}

// classifyApplicationSubtype refines the broad application/* MIME space.
// Streaming-media container subtypes served as application/* are treated as
// multi media; markup subtypes as HTML; the rest stay application.
func classifyApplicationSubtype(minor string) Class {
	switch minor {
	case "xhtml+xml", "xml":
		return HTML
	case "x-shockwave-flash", "vnd.rn-realmedia", "mp4", "ogg",
		"x-mplayer2", "vnd.ms-asf":
		return MultiMedia
	default:
		return Application
	}
}

// ExtensionOf extracts the lowercase file extension (without the dot) from
// a request URL, ignoring any query string or fragment. It returns "" when
// the last path segment has no extension.
func ExtensionOf(url string) string {
	// Strip scheme://host once so that dots in the host name are never
	// mistaken for an extension of a bare URL such as
	// "http://example.com/foo".
	if i := strings.Index(url, "://"); i >= 0 {
		rest := url[i+3:]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			url = rest[j:]
		} else {
			return ""
		}
	}
	if i := strings.IndexAny(url, "?#"); i >= 0 {
		url = url[:i]
	}
	slash := strings.LastIndexByte(url, '/')
	segment := url
	if slash >= 0 {
		segment = url[slash+1:]
	}
	dot := strings.LastIndexByte(segment, '.')
	if dot < 0 || dot == len(segment)-1 {
		return ""
	}
	return strings.ToLower(segment[dot+1:])
}

// extensionClass maps known file extensions to document classes. The table
// merges the extension lists in Section 2 of the paper with the common
// long-tail extensions observed in proxy traces of the period.
var extensionClass = map[string]Class{
	// Images.
	"gif": Image, "jpg": Image, "jpeg": Image, "jpe": Image,
	"png": Image, "bmp": Image, "tif": Image, "tiff": Image,
	"ico": Image, "xbm": Image, "xpm": Image, "svg": Image,
	"webp": Image,

	// HTML and text; .tex/.java and friends are folded into HTML per the
	// paper.
	"html": HTML, "htm": HTML, "shtml": HTML, "xhtml": HTML,
	"txt": HTML, "text": HTML, "asc": HTML, "tex": HTML,
	"java": HTML, "c": HTML, "h": HTML, "cc": HTML, "cpp": HTML,
	"css": HTML, "js": HTML, "xml": HTML, "csv": HTML, "md": HTML,

	// Multi media: digital audio and video.
	"mp3": MultiMedia, "mp2": MultiMedia, "wav": MultiMedia,
	"au": MultiMedia, "aiff": MultiMedia, "aif": MultiMedia,
	"ram": MultiMedia, "ra": MultiMedia, "rm": MultiMedia,
	"mpeg": MultiMedia, "mpg": MultiMedia, "mpe": MultiMedia,
	"mp4": MultiMedia, "mov": MultiMedia, "qt": MultiMedia,
	"avi": MultiMedia, "asf": MultiMedia, "asx": MultiMedia,
	"wmv": MultiMedia, "wma": MultiMedia, "swf": MultiMedia,
	"mid": MultiMedia, "midi": MultiMedia, "ogg": MultiMedia,

	// Application documents.
	"ps": Application, "eps": Application, "pdf": Application,
	"doc": Application, "xls": Application, "ppt": Application,
	"rtf": Application, "dvi": Application,
	"zip": Application, "gz": Application, "tgz": Application,
	"tar": Application, "z": Application, "bz2": Application,
	"rar": Application, "arj": Application, "lha": Application,
	"exe": Application, "bin": Application, "dll": Application,
	"iso": Application, "rpm": Application, "deb": Application,
	"jar": Application, "class": Application, "cab": Application,
	"hqx": Application, "sit": Application, "dmg": Application,
}

// FromExtension maps a lowercase file extension (without dot) to a document
// class. It returns Unknown for extensions outside the known table so the
// caller can decide on a fallback.
func FromExtension(ext string) Class {
	if ext == "" {
		return Unknown
	}
	if c, ok := extensionClass[strings.ToLower(ext)]; ok {
		return c
	}
	return Unknown
}
