"""Writers of the corpus and embedding input formats, for fixtures.

The program only reads these files; tests write them to build corpora
and to check that the loaders give back what was written.
"""

import json

from venuerec.embeddings import write_text_vectors


def save_venues(venues, texts, path):
    """Write `venues` with the raw comment texts that `texts` maps each
    venue id to; a loaded venue keeps only the stemmed tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in venues:
            obj = {"id": v.id}
            for key in ("checkins", "likes", "comment_count", "photos",
                        "rating_avg", "unique_users"):
                value = getattr(v.stats, key)
                if value is not None:
                    obj[key] = value
            obj["comments"] = list(texts[v.id])
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def save_profiles(profiles, path):
    with open(path, "w", encoding="utf-8") as fh:
        for p in profiles:
            obj = {"user_id": p.user_id, "gender": p.gender,
                   "ratings": [{"venue_id": v, "rating": r}
                               for v, r in p.ratings]}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def save_contexts(pairs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            obj = {"topic_id": pair.topic_id, "user_id": pair.user.user_id,
                   "context": dict(pair.context),
                   "candidates": list(pair.candidates)}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def save_qrels(qrels, path):
    """One line per judgment, sorted by topic and then venue."""
    with open(path, "w", encoding="utf-8") as fh:
        for topic_id in qrels.topics():
            for venue_id in sorted(qrels.relevant_venues(topic_id, cutoff=0)):
                fh.write("%s 0 %s %d\n" % (topic_id, venue_id,
                                           qrels.grade(topic_id, venue_id)))


def save_embeddings(store, path, format="text"):
    entries = [(term, store.vector_of(term)) for term in store.terms]
    if format == "text":
        write_text_vectors(entries, path)
    elif format == "binary":
        _save_binary(entries, store.dimension, path)
    else:
        raise ValueError("unknown embedding format %r" % format)


def _save_binary(entries, dimension, path):
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (len(entries), dimension))
        for term, vec in entries:
            fh.write(term.encode("utf-8"))
            fh.write(b" ")
            fh.write(vec.astype("<f4").tobytes())
            fh.write(b"\n")
