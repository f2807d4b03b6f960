"""Shared synthetic lexicon.

One source of truth for the word pools used both by the ER dataset
generators (``repro.er_data``) and by the synthetic pre-trained embedding
dictionaries (``repro.embeddings.pretrained``). This mirrors reality: GloVe
was trained on the same natural language the benchmark datasets are written
in, so surface forms that co-occur in the world ("Bill"/"William",
"intl"/"international") are close in embedding space.

The concept map sends every surface form to a canonical *concept*; the
embedding generator seeds a word's semantic component from its concept, so
nicknames, abbreviations, and synonyms land near each other — the property
the paper highlights in §1 ("William" vs "Bill", "Apple Phone" vs "iPhone").
"""
from __future__ import annotations

# ---------------------------------------------------------------- names ----
FIRST_NAMES = [
    "william", "robert", "elizabeth", "michael", "jennifer", "david", "susan",
    "james", "maria", "john", "patricia", "richard", "linda", "charles",
    "barbara", "joseph", "margaret", "thomas", "dorothy", "daniel", "nancy",
    "matthew", "karen", "anthony", "betty", "edward", "sandra", "steven",
    "donna", "kenneth", "carol", "joshua", "ruth", "kevin", "sharon", "brian",
    "michelle", "george", "laura", "timothy", "sarah", "ronald", "kimberly",
    "jason", "deborah", "jeffrey", "jessica", "gregory", "cynthia", "samuel",
]

# nickname -> canonical first name (same concept => nearby vectors)
NICKNAMES = {
    "bill": "william", "will": "william", "bob": "robert", "rob": "robert",
    "liz": "elizabeth", "beth": "elizabeth", "mike": "michael",
    "jen": "jennifer", "dave": "david", "sue": "susan", "jim": "james",
    "jack": "john", "rick": "richard", "dick": "richard", "chuck": "charles",
    "joe": "joseph", "peggy": "margaret", "tom": "thomas", "dan": "daniel",
    "matt": "matthew", "tony": "anthony", "ed": "edward", "steve": "steven",
    "ken": "kenneth", "josh": "joshua", "kev": "kevin", "tim": "timothy",
    "ron": "ronald", "jeff": "jeffrey", "greg": "gregory", "sam": "samuel",
}

LAST_NAMES = [
    "smith", "johnson", "brown", "taylor", "anderson", "harris", "clark",
    "lewis", "walker", "young", "allen", "wright", "scott", "torres",
    "nguyen", "hill", "flores", "green", "adams", "nelson", "baker", "hall",
    "rivera", "campbell", "mitchell", "carter", "roberts", "gomez",
    "phillips", "evans", "turner", "diaz", "parker", "cruz", "edwards",
    "collins", "reyes", "stewart", "morris", "morales", "murphy", "cook",
    "rogers", "gutierrez", "ortiz", "morgan", "cooper", "peterson", "bailey",
    "reed", "kelly", "howard", "ramos", "kim", "cox", "ward", "richardson",
    "watson", "brooks", "chavez", "wood", "james", "bennett", "gray",
    "mendoza", "ruiz", "hughes", "price", "alvarez", "castillo", "sanders",
    "patel", "myers", "long", "ross", "foster", "jimenez", "stone", "chen",
    "zhang",
]

# ----------------------------------------------------- research / titles ----
TOPIC_WORDS = [
    "learning", "database", "query", "optimization", "distributed", "systems",
    "parallel", "processing", "data", "mining", "knowledge", "discovery",
    "neural", "networks", "deep", "representation", "semantic", "analysis",
    "efficient", "scalable", "approximate", "nearest", "neighbor", "search",
    "indexing", "hashing", "similarity", "entity", "resolution", "matching",
    "record", "linkage", "deduplication", "cleaning", "integration",
    "transaction", "concurrency", "recovery", "storage", "memory", "cache",
    "stream", "graph", "spatial", "temporal", "probabilistic", "statistical",
    "inference", "classification", "clustering", "regression", "feature",
    "selection", "extraction", "embedding", "language", "model", "text",
    "information", "retrieval", "ranking", "recommendation", "filtering",
    "privacy", "security", "crowdsourcing", "adaptive", "incremental",
    "online", "dynamic", "static", "hybrid", "framework", "architecture",
    "algorithm", "structure", "theory", "practice", "evaluation", "benchmark",
    "performance", "scalability", "robust", "sampling", "estimation",
    "cardinality", "join", "aggregation", "partitioning", "replication",
    "consistency", "availability", "fault", "tolerance", "cloud", "federated",
    "relational", "nosql", "columnar", "vectorized", "compilation",
    "workload", "tuning", "automatic", "declarative", "interactive",
    "visualization", "exploration", "provenance", "versioning", "schema",
    "mapping", "ontology", "reasoning", "logic", "constraint", "dependency",
    "functional", "keys", "views", "materialized", "compression", "encoding",
]

# Technical jargon that appears in paper titles but is too rare for a
# small Wikipedia-sized dictionary (the long Zipfian tail of §3.2). The
# Common-Crawl-sized dictionary covers these; GloVe-Wiki does not.
RARE_TOPIC_WORDS = [
    "lsh", "minhash", "simhash", "hyperloglog", "bloom", "treap",
    "skiplist", "lsm", "wal", "mvcc", "raft", "paxos", "quorum",
    "sharding", "bitmap", "zonemap", "simd", "gpu", "fpga", "rdma",
    "numa", "prefetching", "vectorization", "hyperparameter",
    "regularization", "backpropagation", "autoencoder", "perceptron",
    "bayesian", "markov", "monte", "carlo", "gibbs", "viterbi",
    "eigenvector", "tensor", "wavelet", "kernelized", "submodular",
    "sketching", "streaming", "turnstile", "frkm", "qgram", "trie",
    "suffix", "automaton", "bisimulation", "datalog", "skyline",
    "reachability", "betweenness", "pagerank", "louvain", "embeddings",
    "word2vec", "glove", "lstm", "seq2seq", "softmax", "dropout",
]

VENUES = [
    "sigmod", "vldb", "icde", "kdd", "cikm", "edbt", "icdm", "wsdm", "www",
    "aaai", "ijcai", "nips", "icml", "acl", "emnlp", "tods", "tkde", "pvldb",
]

VENUE_WORDS = [
    "proceedings", "international", "conference", "journal", "transactions",
    "symposium", "workshop", "annual", "acm", "ieee", "computing", "computer",
    "science", "engineering", "management",
]

# ---------------------------------------------------------------- products --
BRANDS = [
    "samsung", "sony", "panasonic", "toshiba", "logitech", "canon", "nikon",
    "dell", "lenovo", "asus", "acer", "philips", "braun", "dyson", "bosch",
    "makita", "dewalt", "garmin", "fitbit", "netgear", "linksys", "seagate",
    "sandisk", "kingston", "corsair", "belkin", "epson", "brother", "xerox",
    "whirlpool", "frigidaire", "kitchenaid", "cuisinart", "oster", "hamilton",
]

PRODUCT_NOUNS = [
    "laptop", "camera", "printer", "monitor", "keyboard", "mouse", "router",
    "speaker", "headphones", "charger", "adapter", "cable", "battery",
    "drive", "memory", "tablet", "projector", "scanner", "microphone",
    "webcam", "blender", "toaster", "mixer", "kettle", "vacuum", "drill",
    "sander", "grinder", "heater", "fan", "lamp", "clock", "radio",
    "television", "soundbar", "subwoofer", "tripod", "lens", "case", "stand",
    "dock", "hub", "switch", "modem", "antenna", "remote", "console",
]

PRODUCT_ADJS = [
    "wireless", "portable", "digital", "compact", "professional", "premium",
    "ultra", "mini", "slim", "lightweight", "rechargeable", "bluetooth",
    "optical", "mechanical", "ergonomic", "adjustable", "foldable",
    "waterproof", "cordless", "smart", "automatic", "manual", "heavy",
    "duty", "high", "speed", "definition", "resolution", "capacity",
    "performance", "series", "edition", "generation", "black", "white",
    "silver", "grey", "blue", "red", "stainless", "steel", "aluminum",
    "plastic", "glass", "carbon",
]

PRODUCT_UNITS = ["gb", "tb", "mhz", "ghz", "inch", "watt", "volt", "mah",
                 "mm", "cm", "kg", "oz", "pack", "piece", "set"]

# ------------------------------------------------------------- restaurants --
CITIES = [
    "seattle", "portland", "chicago", "boston", "denver", "austin", "dallas",
    "houston", "phoenix", "atlanta", "miami", "orlando", "nashville",
    "memphis", "detroit", "cleveland", "columbus", "baltimore", "richmond",
    "sacramento", "oakland", "berkeley", "pasadena", "tucson", "albuquerque",
]

STREET_WORDS = ["street", "avenue", "boulevard", "road", "drive", "lane",
                "place", "plaza", "square", "court", "north", "south",
                "east", "west", "main", "broadway", "park", "lake", "hill",
                "river", "oak", "pine", "maple", "cedar", "elm", "washington",
                "lincoln", "jefferson", "madison", "franklin"]

CUISINES = [
    "italian", "french", "mexican", "chinese", "japanese", "thai", "indian",
    "greek", "spanish", "korean", "vietnamese", "mediterranean", "american",
    "southern", "cajun", "seafood", "steakhouse", "barbecue", "vegetarian",
    "bakery", "cafe", "bistro", "diner", "grill", "tavern", "pizzeria",
    "sushi", "noodle", "burger", "taco",
]

RESTAURANT_WORDS = ["restaurant", "kitchen", "house", "garden", "golden",
                    "royal", "little", "corner", "famous", "original",
                    "brothers", "mama", "papa", "blue", "green", "red",
                    "star", "crown", "palace", "villa", "casa", "chez"]

# ---------------------------------------------------------- abbreviations ---
# abbreviation -> expansion (same concept)
ABBREV = {
    "intl": "international", "conf": "conference", "proc": "proceedings",
    "trans": "transactions", "j": "journal", "symp": "symposium",
    "st": "street", "ave": "avenue", "blvd": "boulevard", "rd": "road",
    "dr": "drive", "ln": "lane", "pl": "place", "sq": "square",
    "ct": "court", "n": "north", "s": "south", "e": "east", "w": "west",
    "rest": "restaurant", "mgmt": "management", "eng": "engineering",
    "sci": "science", "comp": "computer", "univ": "university",
    "dept": "department", "tech": "technology", "assoc": "association",
    "hd": "definition", "pro": "professional", "wifi": "wireless",
    "tv": "television", "hq": "headquarters", "pc": "computer",
    # vendor-style catalog abbreviations (ubiquitous in real Walmart/Amazon
    # titles): concept-preserving for embeddings, token-overlap-destroying
    # for symbolic similarity — the heart of the "challenging" datasets
    "wless": "wireless", "chrgr": "charger", "kbd": "keyboard",
    "spkr": "speaker", "btry": "battery", "adpt": "adapter",
    "mntr": "monitor", "prtbl": "portable", "rechg": "rechargeable",
    "stnls": "stainless", "alum": "aluminum", "hdphn": "headphones",
    "mech": "mechanical", "opt": "optical", "adj": "adjustable",
    "wtprf": "waterproof", "blk": "black", "wht": "white", "slvr": "silver",
    "gry": "grey", "mcrphn": "microphone", "prjctr": "projector",
    "scnr": "scanner", "prntr": "printer", "vcm": "vacuum", "htr": "heater",
    "spd": "speed", "cpcty": "capacity", "dgtl": "digital",
    "cmpct": "compact", "ltwt": "lightweight", "bt": "bluetooth",
    "erg": "ergonomic", "fldbl": "foldable", "cdls": "cordless",
    "prem": "premium", "gen": "generation", "ed": "edition",
    # research-domain abbreviations for the citation benchmarks
    "db": "database", "sys": "systems", "algo": "algorithm",
    "stats": "statistical", "prob": "probabilistic", "eval": "evaluation",
    "perf": "performance", "approx": "approximate", "sim": "similarity",
    "cls": "classification", "info": "information", "dist": "distributed",
    "repr": "representation", "net": "networks", "knn": "nearest",
    "xtract": "extraction", "agg": "aggregation", "idx": "indexing",
}

# synonym -> canonical (common-word synonymy, the "Apple Phone"~"iPhone" case)
SYNONYMS = {
    # product vocabulary — the synonym-swap channel on "challenging"
    # datasets draws from these, destroying token overlap while leaving
    # embedding similarity intact (same concept)
    "cam": "camera", "keypad": "keyboard", "gateway": "router",
    "loudspeaker": "speaker", "headset": "headphones",
    "powerbank": "charger", "converter": "adapter", "cord": "cable",
    "wire": "cable", "cell": "battery", "beamer": "projector",
    "mic": "microphone", "liquidizer": "blender", "juicer": "mixer",
    "radiator": "heater", "blower": "fan", "light": "lamp",
    "timepiece": "clock", "receiver": "radio", "telly": "television",
    "controller": "remote", "sleeve": "case", "mount": "stand",
    "cradle": "dock", "splitter": "hub", "aerial": "antenna",
    "cordfree": "cordless", "handheld": "portable", "travel": "portable",
    "pocket": "mini", "thin": "slim", "featherweight": "lightweight",
    "ergo": "ergonomic", "collapsible": "foldable", "folding": "foldable",
    "watertight": "waterproof", "intelligent": "smart", "auto": "automatic",
    "deluxe": "premium", "luxury": "premium", "expert": "professional",
    "midnight": "black", "snow": "white", "chrome": "silver",
    "graphite": "grey", "navy": "blue", "crimson": "red",
    "alloy": "aluminum", "acrylic": "plastic",
    "notebook": "laptop", "telephone": "phone", "cellphone": "phone",
    "mobile": "phone", "earphones": "headphones", "earbuds": "headphones",
    "display": "monitor", "screen": "monitor", "storage": "drive",
    "hoover": "vacuum", "cooker": "kettle", "automobile": "car",
    "eatery": "restaurant", "cafeteria": "cafe", "pub": "tavern",
    "fast": "efficient", "quick": "speed", "rapid": "speed",
    "big": "large", "huge": "large", "tiny": "small", "little": "small",
    "method": "algorithm", "approach": "algorithm", "technique": "algorithm",
    "effective": "efficient",
    "databases": "database", "queries": "query", "systems": "system",
    "networks": "network", "models": "model", "graphs": "graph",
}

# ------------------------------------------------------------------ spanish -
# english -> spanish surface form for translatable common words. Names,
# brands, venues keep their surface form (as Google Translate would).
# A few distinct English words intentionally collapse to one Spanish word
# (translation lossiness -> the mild F1 drop of Table 7).
SPANISH = {
    "street": "calle", "avenue": "avenida", "road": "camino",
    "drive": "disco", "lane": "callejon", "place": "plaza",
    "square": "plaza", "plaza": "plaza", "north": "norte", "south": "sur",
    "east": "este", "west": "oeste", "main": "principal", "park": "parque",
    "lake": "lago", "hill": "colina", "river": "rio", "oak": "roble",
    "pine": "pino", "maple": "arce", "cedar": "cedro", "elm": "olmo",
    "restaurant": "restaurante", "kitchen": "cocina", "house": "casa",
    "garden": "jardin", "golden": "dorado", "royal": "real",
    "little": "pequeno", "small": "pequeno", "corner": "esquina",
    "famous": "famoso", "original": "original", "brothers": "hermanos",
    "blue": "azul", "green": "verde", "red": "rojo", "star": "estrella",
    "crown": "corona", "palace": "palacio", "villa": "villa", "casa": "casa",
    "italian": "italiano", "french": "frances", "mexican": "mexicano",
    "chinese": "chino", "japanese": "japones", "greek": "griego",
    "spanish": "espanol", "american": "americano", "seafood": "mariscos",
    "vegetarian": "vegetariano", "bakery": "panaderia", "cafe": "cafe",
    "grill": "parrilla", "steakhouse": "parrilla",  # collapse
    "barbecue": "parrilla",                          # collapse
    "tavern": "taberna", "bar": "taberna",           # collapse
    "bistro": "restaurante", "diner": "restaurante",  # collapse
    "burger": "hamburguesa",
    "laptop": "portatil", "camera": "camara", "printer": "impresora",
    "monitor": "monitor", "keyboard": "teclado", "mouse": "raton",
    "speaker": "altavoz", "headphones": "auriculares", "charger": "cargador",
    "adapter": "adaptador", "cable": "cable", "battery": "bateria",
    "memory": "memoria", "tablet": "tableta",
    "wireless": "inalambrico", "portable": "portatil", "digital": "digital",
    "compact": "compacto", "professional": "profesional", "mini": "mini",
    "lightweight": "ligero", "rechargeable": "recargable",
    "black": "negro", "white": "blanco", "silver": "plata", "grey": "gris",
    "stainless": "inoxidable", "steel": "acero", "glass": "vidrio",
    "learning": "aprendizaje", "database": "basededatos", "query": "consulta",
    "optimization": "optimizacion", "distributed": "distribuido",
    "systems": "sistemas", "parallel": "paralelo", "processing":
    "procesamiento", "data": "datos", "mining": "mineria",
    "knowledge": "conocimiento", "discovery": "descubrimiento",
    "neural": "neuronal", "networks": "redes", "deep": "profundo",
    "semantic": "semantico", "analysis": "analisis", "efficient": "eficiente",
    "scalable": "escalable", "search": "busqueda", "indexing": "indexacion",
    "similarity": "similitud", "entity": "entidad",
    "resolution": "resolucion", "matching": "emparejamiento",
    "record": "registro", "cleaning": "limpieza", "integration":
    "integracion", "storage": "almacenamiento",
    "graph": "grafo", "classification": "clasificacion",
    "clustering": "agrupamiento", "feature": "caracteristica",
    "selection": "seleccion", "extraction": "extraccion",
    "language": "idioma", "model": "modelo", "text": "texto",
    "information": "informacion", "retrieval": "recuperacion",
    "ranking": "clasificacion",  # collapses with "classification"
    "recommendation": "recomendacion", "privacy": "privacidad",
    "security": "seguridad", "online": "enlinea", "dynamic": "dinamico",
    "framework": "marco", "architecture": "arquitectura",
    "algorithm": "algoritmo", "structure": "estructura", "theory": "teoria",
    "evaluation": "evaluacion", "performance": "rendimiento",
    "join": "union", "cloud": "nube", "proceedings": "actas",
    "international": "internacional", "conference": "conferencia",
    "journal": "revista", "transactions": "transacciones",
    "symposium": "simposio", "workshop": "taller", "annual": "anual",
    "computing": "computacion", "computer": "computadora",
    "science": "ciencia", "engineering": "ingenieria",
    "management": "gestion",
}


def concept_map() -> dict[str, str]:
    """Surface form -> canonical concept (nicknames + abbrevs + synonyms)."""
    m: dict[str, str] = {}
    m.update(NICKNAMES)
    m.update({abbr: full for abbr, full in ABBREV.items()})
    m.update(SYNONYMS)
    return m


def common_words() -> set[str]:
    """Words a small "Wikipedia-sized" dictionary would still cover: common
    English vocabulary, but not people names, brand names, or venue acronyms
    (the long tail GloVe-Wiki misses per §3.2/Table 5)."""
    out: set[str] = set()
    for pool in (TOPIC_WORDS, VENUE_WORDS, STREET_WORDS, CUISINES,
                 RESTAURANT_WORDS, PRODUCT_NOUNS, PRODUCT_ADJS, CITIES):
        out.update(pool)
    out.update(SYNONYMS.keys())
    out.update(SYNONYMS.values())
    return out
