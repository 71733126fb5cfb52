# Execute Boolean queries against the local fielded index, and check it
# against the naive per-document oracle.

from srquery.collections import Corpus, CorpusDoc, MeshDescriptor, MeshVocab
from srquery.query_ast import parse
from srquery.retrieval import build_index, execute_local, execute_naive, explode_mesh

vocab = MeshVocab({
    "neoplasms": MeshDescriptor("Neoplasms", "D009369", ("C04",)),
    "carcinoma": MeshDescriptor("Carcinoma", "D002277", ("C04.557",)),
    "thyroid neoplasms": MeshDescriptor("Thyroid Neoplasms", "D013964", ("C04.588.894.473",)),
})

corpus = Corpus({
    "1": CorpusDoc("1", "Thyroid cancer screening", "screening for thyroid carcinoma",
                   mesh_terms=("Thyroid Neoplasms",)),
    "2": CorpusDoc("2", "Carcinoma case series", "a series of carcinoma cases",
                   mesh_terms=("Carcinoma",), pub_types=("Review",)),
    "3": CorpusDoc("3", "Influenza rapid testing", "point of care influenza assays"),
})

idx = build_index(corpus, vocab)

queries = [
    "thyroid[Title/Abstract]",
    '"point of care"[tiab]',
    "carcin*[All Fields]",                       # truncation
    "Neoplasms[MeSH]",                           # explodes to descendants
    "Neoplasms[mesh:noexp]",                     # exact descriptor only
    "(thyroid[tiab] OR influenza[tiab]) NOT Review[pt]",
]
for text in queries:
    q = parse(text)
    local = execute_local(idx, q)
    naive = execute_naive(corpus, q, vocab)
    assert local == naive, "engines disagree"
    print(f"{text:55s} -> {sorted(local)}")

# The explosion itself: every descriptor whose tree number extends C04.
print(f"\nexplode(Neoplasms) = {sorted(explode_mesh(vocab, 'Neoplasms'))}")
counts = ", ".join(f"{field} {len(keys)}" for field, keys in idx.sorted_keys.items())
print(f"keys per field: {counts}")
