"""Benchmark inputs made from a seed, and an evaluator independent of the catalog.

Documents follow the annotated LEAD schema the catalog ships (keyword,
citation, bounding and dynamic ``detailed`` attributes), but they are
generated here, not by ``repro.grid.generator``, so that a change to the
program's own generator cannot change the benchmark's inputs.

Two document families are generated per seed: **base** documents
(index ``0..n-1``) form the starting corpus, and **upload** documents
(index :data:`UPLOAD_BASE` up) are what the timed phase sends.  Planted
marker keywords sit in every ``period``-th base document only, so a
marker query has an exact count known without running the catalog.

:class:`Evaluator` answers the benchmark's query shapes by reading the
document text with :mod:`xml.etree.ElementTree`; it shares no code with
the catalog's shredder, planner or stores.
"""

from __future__ import annotations

import bisect
import random
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional, Set, Tuple

from repro.core import AttributeCriteria, ObjectQuery, Op, ValueType

CF_NAMES = [
    "air_temperature", "air_pressure", "relative_humidity", "dew_point_temperature",
    "wind_speed", "wind_from_direction", "eastward_wind", "northward_wind",
    "upward_air_velocity", "cloud_area_fraction", "cloud_base_altitude",
    "precipitation_amount", "precipitation_flux", "snowfall_amount",
    "soil_moisture_content", "soil_temperature", "surface_air_pressure",
    "geopotential_height", "specific_humidity", "convective_inhibition",
    "storm_relative_helicity", "lifted_index", "radar_reflectivity",
    "hail_diameter", "lightning_flash_rate", "graupel_mixing_ratio",
    "rain_water_mixing_ratio", "convective_available_potential_energy",
]
LEVELS = ["sfc", "925hPa", "850hPa", "700hPa", "500hPa", "300hPa", "250hPa", "100hPa"]
#: Theme keywords: every CF name at every level (224 literals).
KEYWORDS = [f"{name}@{level}" for name in CF_NAMES for level in LEVELS]
PLACES = ["Oklahoma", "Kansas", "Nebraska", "Texas", "Iowa", "Missouri",
          "Colorado", "Great Plains", "Gulf Coast", "Midwest"]
STRATA = ["surface", "boundary layer", "lower troposphere", "upper troposphere"]
TEMPORAL = ["spring 2005", "summer 2005", "spring 2006", "nowcast", "forecast"]
ORIGINS = ["LEAD Project", "CAPS", "NCSA", "Unidata", "Indiana University"]

#: Model -> group -> [(parameter, kind)]; kind "int" or "float".
MODELS: Dict[str, Dict[str, List[Tuple[str, str]]]] = {
    "ARPS": {
        "grid": [("nx", "int"), ("ny", "int"), ("nz", "int"),
                 ("dx", "float"), ("dy", "float"), ("dz", "float")],
        "timestep": [("dtbig", "float"), ("dtsml", "float"), ("tstop", "float"),
                     ("vimplct", "int")],
        "physics": [("mphyopt", "int"), ("cnvctopt", "int"), ("radopt", "int"),
                    ("sfcphy", "int")],
    },
    "WRF": {
        "domains": [("time_step", "int"), ("e_we", "int"), ("e_sn", "int"),
                    ("e_vert", "int"), ("dx", "float"), ("dy", "float")],
        "physics": [("mp_physics", "int"), ("cu_physics", "int"),
                    ("bl_pbl_physics", "int"), ("ra_lw_physics", "int")],
        "dynamics": [("khdif", "float"), ("kvdif", "float"), ("w_damping", "int"),
                     ("diff_opt", "int")],
    },
}
#: Every (model, group, parameter, kind), in a fixed order.
PARAMETERS = [
    (model, group, param, kind)
    for model, groups in MODELS.items()
    for group, params in groups.items()
    for param, kind in params
]
#: Marker keyword -> period: planted in base documents whose index is a
#: multiple of the period, so each marker's count is exact.
MARKERS = {"marker-every-7": 7, "marker-every-25": 25}

UPLOAD_BASE = 1_000_000


def _value(rng: random.Random, kind: str) -> str:
    if kind == "int":
        return str(rng.randint(0, 100))
    return f"{rng.uniform(0.0, 5000.0):.3f}"


def _sub(parent: ET.Element, tag: str, text: Optional[str] = None) -> ET.Element:
    node = ET.SubElement(parent, tag)
    if text is not None:
        node.text = text
    return node


def make_document(seed: int, index: int, resource_id: str) -> Tuple[str, bool]:
    """Document ``index`` of ``seed`` as XML text, and whether its owner
    publishes it.  Upload documents (from :data:`UPLOAD_BASE` up) carry
    no planted marker.  The text depends only on ``seed``,
    ``index`` and ``resource_id``."""
    rng = random.Random(seed * 1_000_003 + index)
    public = rng.random() < 0.5
    root = ET.Element("LEADresource")
    _sub(root, "resourceID", resource_id)
    data = _sub(root, "data")
    idinfo = _sub(data, "idinfo")
    status = _sub(idinfo, "status")
    _sub(status, "progress", rng.choice(["Complete", "In work", "Planned"]))
    _sub(status, "update", rng.choice(["Continually", "As needed"]))
    year, month, day = rng.choice([2004, 2005, 2006]), rng.randint(1, 12), rng.randint(1, 27)
    citation = _sub(idinfo, "citation")
    _sub(citation, "origin", rng.choice(ORIGINS))
    _sub(citation, "pubdate", f"{year:04d}-{month:02d}-{day:02d}")
    _sub(citation, "title", f"Forecast run {index % UPLOAD_BASE:06d}")
    timeperd = _sub(idinfo, "timeperd")
    _sub(timeperd, "begdate", f"{year:04d}-{month:02d}-{day:02d}")
    _sub(timeperd, "enddate", f"{year:04d}-{month:02d}-{day + 1:02d}")
    keywords = _sub(idinfo, "keywords")
    for t in range(2):
        theme = _sub(keywords, "theme")
        _sub(theme, "themekt", "CF NetCDF")
        for key in rng.sample(KEYWORDS, 3):
            _sub(theme, "themekey", key)
        if t == 0 and index < UPLOAD_BASE:
            for marker, period in MARKERS.items():
                if index % period == 0:
                    _sub(theme, "themekey", marker)
    place = _sub(keywords, "place")
    _sub(place, "placekt", "GNIS")
    for key in rng.sample(PLACES, 2):
        _sub(place, "placekey", key)
    stratum = _sub(keywords, "stratum")
    _sub(stratum, "stratkt", "LEAD")
    _sub(stratum, "stratkey", rng.choice(STRATA))
    temporal = _sub(keywords, "temporal")
    _sub(temporal, "tempkt", "LEAD")
    _sub(temporal, "tempkey", rng.choice(TEMPORAL))
    _sub(idinfo, "accconst", rng.choice(["None", "Project members only"]))
    _sub(idinfo, "useconst", "Research use")
    geospatial = _sub(data, "geospatial")
    bounding = _sub(_sub(geospatial, "spdom"), "bounding")
    west, south = rng.uniform(-105.0, -95.0), rng.uniform(30.0, 38.0)
    _sub(bounding, "westbc", f"{west:.3f}")
    _sub(bounding, "eastbc", f"{west + rng.uniform(2.0, 6.0):.3f}")
    _sub(bounding, "northbc", f"{south + rng.uniform(2.0, 6.0):.3f}")
    _sub(bounding, "southbc", f"{south:.3f}")
    vertdom = _sub(geospatial, "vertdom")
    _sub(vertdom, "vertmin", "0.0")
    _sub(vertdom, "vertmax", f"{rng.uniform(12000.0, 20000.0):.1f}")
    eainfo = _sub(geospatial, "eainfo")
    model = rng.choice(sorted(MODELS))
    for group in rng.sample(sorted(MODELS[model]), 2):
        detailed = _sub(eainfo, "detailed")
        enttyp = _sub(detailed, "enttyp")
        _sub(enttyp, "enttypl", group)
        _sub(enttyp, "enttypds", model)
        for param, kind in MODELS[model][group]:
            item = _sub(detailed, "attr")
            _sub(item, "attrlabl", param)
            _sub(item, "attrdefs", model)
            _sub(item, "attrv", _value(rng, kind))
        section = _sub(detailed, "attr")
        _sub(section, "attrlabl", f"{group}-section-l1")
        _sub(section, "attrdefs", model)
        leaf = _sub(section, "attr")
        _sub(leaf, "attrlabl", f"{group}-param-l1")
        _sub(leaf, "attrdefs", model)
        _sub(leaf, "attrv", _value(rng, "float"))
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="unicode") + "\n", public


def define_attributes(catalog) -> None:
    """Register every dynamic definition the documents use, at admin scope."""
    types = {"int": ValueType.INTEGER, "float": ValueType.FLOAT}
    for model, groups in MODELS.items():
        for group, params in groups.items():
            attr = catalog.define_attribute(group, model, host="detailed")
            for param, kind in params:
                catalog.define_element(attr, param, model, types[kind])
            section = catalog.define_attribute(
                f"{group}-section-l1", model, host="detailed", parent=attr
            )
            catalog.define_element(section, f"{group}-param-l1", model, ValueType.FLOAT)


# ---------------------------------------------------------------------------
# Query shapes.  A spec is a plain tuple the evaluator reads; to_query()
# turns it into the catalog's ObjectQuery.
#   ("kw", keyword)                       theme keyword equality
#   ("param", model, group, param, op, t) numeric range on a parameter
#   ("nested", model, group, t)           sub-attribute chain, leaf >= t
#   ("conj", keyword, model, group, param, op, t)   keyword AND range
# ---------------------------------------------------------------------------
_OPS = {"<=": Op.LE, ">=": Op.GE}


def _param_criteria(model: str, group: str, param: str, op: str, t) -> AttributeCriteria:
    return AttributeCriteria(group, model).add_element(param, model, t, _OPS[op])


def to_query(spec: tuple) -> ObjectQuery:
    kind = spec[0]
    query = ObjectQuery()
    if kind in ("kw", "conj"):
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", spec[1], Op.EQ)
        )
    if kind == "param":
        query.add_attribute(_param_criteria(*spec[1:]))
    elif kind == "conj":
        query.add_attribute(_param_criteria(*spec[2:]))
    elif kind == "nested":
        _kind, model, group, t = spec
        section = AttributeCriteria(f"{group}-section-l1", model)
        section.add_element(f"{group}-param-l1", model, t, Op.GE)
        query.add_attribute(AttributeCriteria(group, model).add_attribute(section))
    return query


def random_spec(rng: random.Random, shape: str) -> tuple:
    """A query of ``shape`` with literals drawn from ``rng``."""
    if shape == "kw":
        return ("kw", rng.choice(KEYWORDS))
    if shape == "marker":
        return ("kw", rng.choice(sorted(MARKERS)))
    # Thresholds keep ranges selective: about a tenth of the values.
    model, group, param, kind = rng.choice(PARAMETERS)
    op = rng.choice(sorted(_OPS))
    low = op == "<="
    if kind == "int":
        t = rng.randint(0, 20) if low else rng.randint(80, 100)
    else:
        t = round(rng.uniform(0.0, 1000.0) if low else rng.uniform(4000.0, 5000.0), 3)
    if shape == "param":
        return ("param", model, group, param, op, t)
    if shape == "nested":
        return ("nested", model, group, round(rng.uniform(4000.0, 5000.0), 3))
    if shape == "conj":
        return ("conj", rng.choice(KEYWORDS), model, group, param, op, t)
    raise ValueError(f"unknown query shape {shape!r}")


class Evaluator:
    """Answers query specs over documents read with ``xml.etree``.

    ``add(object_id, text)`` indexes one document; ``match(spec)``
    returns the sorted ids of every indexed document that satisfies it.
    """

    def __init__(self) -> None:
        self._keywords: Dict[str, Set[int]] = {}
        # (model, group, label) -> sorted [(value, object_id)]
        self._values: Dict[Tuple[str, str, str], List[Tuple[float, int]]] = {}
        self._memo: Dict[tuple, List[int]] = {}

    def add(self, object_id: int, text: str) -> None:
        self._memo.clear()
        root = ET.fromstring(text)
        for key in root.iterfind("data/idinfo/keywords/theme/themekey"):
            self._keywords.setdefault(key.text or "", set()).add(object_id)
        for detailed in root.iterfind("data/geospatial/eainfo/detailed"):
            group = detailed.findtext("enttyp/enttypl")
            model = detailed.findtext("enttyp/enttypds")
            for item in detailed.iterfind("attr"):
                if item.findtext("attrdefs") != model:
                    continue
                label = item.findtext("attrlabl")
                if label == f"{group}-section-l1":
                    for leaf in item.iterfind("attr"):
                        if leaf.findtext("attrlabl") == f"{group}-param-l1":
                            self._put((model, group, "#nested"), leaf, object_id)
                else:
                    self._put((model, group, label), item, object_id)

    def _put(self, key: tuple, item: ET.Element, object_id: int) -> None:
        bisect.insort(self._values.setdefault(key, []),
                      (float(item.findtext("attrv")), object_id))

    def _range(self, key: tuple, op: str, t) -> Set[int]:
        values = self._values.get(key, [])
        if op == ">=":
            cut = bisect.bisect_left(values, (float(t), -1))
            return {oid for _v, oid in values[cut:]}
        cut = bisect.bisect_right(values, (float(t), float("inf")))
        return {oid for _v, oid in values[:cut]}

    def match(self, spec: tuple) -> List[int]:
        hit = self._memo.get(spec)
        if hit is not None:
            return hit
        kind = spec[0]
        if kind == "kw":
            ids = set(self._keywords.get(spec[1], ()))
        elif kind == "param":
            _k, model, group, param, op, t = spec
            ids = self._range((model, group, param), op, t)
        elif kind == "nested":
            _k, model, group, t = spec
            ids = self._range((model, group, "#nested"), ">=", t)
        else:
            _k, keyword, model, group, param, op, t = spec
            ids = self._keywords.get(keyword, set()) & self._range((model, group, param), op, t)
        result = self._memo[spec] = sorted(ids)
        return result


def canonical(text: str) -> str:
    """The document's canonical XML form with whitespace-only text dropped."""
    return ET.canonicalize(text, strip_text=True)


def marker_count(base_documents: int, keyword: str) -> int:
    """How many base documents carry a planted marker."""
    period = MARKERS[keyword]
    return (base_documents + period - 1) // period
