#!/usr/bin/env python3
"""Regenerate tests/serve/inline_kits.log: every kit corpus document as an
inline-kit serve request, one request per line.

Each document of tests/kits/corpus/ (sorted by file name) is wrapped as
  {"id": "<file stem>", "kit": <document>}
with its line breaks turned into spaces (the corpus documents break lines
only between tokens, so every byte offset inside the document keeps its
distance from the document start).  The log pins the wire bytes of
kit-loader errors in served responses; tests/serve/inline_kits.responses
holds the expected responses, produced by

  ipass_replay --log tests/serve/inline_kits.log > tests/serve/inline_kits.responses

The log and its responses are committed goldens: a change to either is a
change to the wire format of kit errors.
"""

import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CORPUS = os.path.join(ROOT, "tests", "kits", "corpus")
OUT = os.path.join(ROOT, "tests", "serve", "inline_kits.log")


def main() -> None:
    lines = []
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(CORPUS, name), "rb") as f:
            doc = f.read().decode("ascii").rstrip()
        doc = doc.replace("\r", " ").replace("\n", " ")
        stem = name[: -len(".json")]
        lines.append('{"id": "%s", "kit": %s}\n' % (stem, doc))
    with open(OUT, "w", newline="\n") as f:
        f.writelines(lines)


if __name__ == "__main__":
    main()
