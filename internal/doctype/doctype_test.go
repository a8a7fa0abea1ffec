package doctype

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFromContentType(t *testing.T) {
	tests := []struct {
		name string
		ct   string
		want Class
	}{
		{"image gif", "image/gif", Image},
		{"image jpeg params", "image/jpeg; quality=80", Image},
		{"html", "text/html", HTML},
		{"html charset", "text/html; charset=ISO-8859-1", HTML},
		{"plain text", "text/plain", HTML},
		{"audio mpeg", "audio/mpeg", MultiMedia},
		{"video mpeg", "video/mpeg", MultiMedia},
		{"video quicktime", "video/quicktime", MultiMedia},
		{"postscript", "application/postscript", Application},
		{"pdf", "application/pdf", Application},
		{"zip", "application/zip", Application},
		{"octet stream", "application/octet-stream", Application},
		{"xhtml is html", "application/xhtml+xml", HTML},
		{"xml is html", "application/xml", HTML},
		{"flash is media", "application/x-shockwave-flash", MultiMedia},
		{"realmedia is media", "application/vnd.rn-realmedia", MultiMedia},
		{"uppercase", "IMAGE/GIF", Image},
		{"surrounding space", "  text/html ", HTML},
		{"empty", "", Unknown},
		{"no slash", "gibberish", Unknown},
		{"unknown major", "model/vrml", Unknown},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FromContentType(tt.ct); got != tt.want {
				t.Errorf("FromContentType(%q) = %v, want %v", tt.ct, got, tt.want)
			}
		})
	}
}

func TestExtensionOf(t *testing.T) {
	tests := []struct {
		name string
		url  string
		want string
	}{
		{"plain", "/images/logo.gif", "gif"},
		{"query stripped", "/doc.pdf?session=42", "pdf"},
		{"fragment stripped", "/page.html#top", "html"},
		{"no extension", "/images/logo", ""},
		{"trailing dot", "/weird.", ""},
		{"directory", "/a/b/", ""},
		{"root", "/", ""},
		{"uppercase folded", "/BIG.JPEG", "jpeg"},
		{"dots in path", "/v1.2/file.zip", "zip"},
		{"full url", "http://www.example.com/a/song.mp3", "mp3"},
		{"full url no path", "http://www.example.com", ""},
		{"host dots not ext", "http://cache.nlanr.net/", ""},
		{"empty", "", ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExtensionOf(tt.url); got != tt.want {
				t.Errorf("ExtensionOf(%q) = %q, want %q", tt.url, got, tt.want)
			}
		})
	}
}

func TestFromExtension(t *testing.T) {
	tests := []struct {
		ext  string
		want Class
	}{
		{"gif", Image},
		{"jpeg", Image},
		{"png", Image},
		{"html", HTML},
		{"txt", HTML},
		{"tex", HTML},
		{"java", HTML},
		{"mp3", MultiMedia},
		{"mpeg", MultiMedia},
		{"mov", MultiMedia},
		{"ram", MultiMedia},
		{"ps", Application},
		{"pdf", Application},
		{"zip", Application},
		{"exe", Application},
		{"xyz", Unknown},
		{"", Unknown},
	}
	for _, tt := range tests {
		if got := FromExtension(tt.ext); got != tt.want {
			t.Errorf("FromExtension(%q) = %v, want %v", tt.ext, got, tt.want)
		}
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		name string
		ct   string
		url  string
		want Class
	}{
		{"content type wins", "image/gif", "/file.pdf", Image},
		{"extension fallback", "", "/file.pdf", Application},
		{"neither resolves", "", "/file", Other},
		{"unknown extension", "", "/file.xyz", Other},
		{"unknown ct falls back", "model/vrml", "/scene.mp3", MultiMedia},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Classify(tt.ct, tt.url); got != tt.want {
				t.Errorf("Classify(%q, %q) = %v, want %v", tt.ct, tt.url, got, tt.want)
			}
		})
	}
}

func TestClassStrings(t *testing.T) {
	seen := make(map[string]bool, NumClasses)
	for _, c := range Classes {
		if c == Unknown {
			t.Fatal("Classes must not contain Unknown")
		}
		s := c.String()
		if s == "Unknown" || s == "" {
			t.Errorf("class %d has bad String %q", c, s)
		}
		if seen[s] {
			t.Errorf("duplicate class name %q", s)
		}
		seen[s] = true
	}
	if Class(200).String() != "Unknown" {
		t.Error("out-of-range class should stringify as Unknown")
	}
}

// TestClassifyTotal checks the invariant that Classify never returns
// Unknown: every request must land in a reportable class.
func TestClassifyTotal(t *testing.T) {
	f := func(ct, url string) bool {
		return Classify(ct, url) != Unknown
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExtensionOfNoSeparators checks that extracted extensions never
// contain path, query, or fragment separators.
func TestExtensionOfNoSeparators(t *testing.T) {
	f := func(url string) bool {
		ext := ExtensionOf(url)
		return !strings.ContainsAny(ext, "/?#.")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
