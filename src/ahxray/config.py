"""Plain-text experiment configuration.

INI-style sections hold one block per module; numbered ``term.N`` /
``basis.N`` keys describe separable field terms.  Term values are
semicolon-separated ``key=value`` fields; matrices are row-major re,im
pairs.  A section, key or term field that no builder reads is refused,
as is a value that does not read as the number its key needs, and values
are literal (no ``%`` interpolation).  Example::

    [experiment]
    seed = 42

    [model]
    kind = poincare_disk

    [connection]
    rank = 2
    decay = 3
    term.0 = dir=0; gen=0,0,0,1,0,-1,0,0; center=0.2,0.1; sigma=0.3

The fingerprint of a configuration is a hash of its canonical (sorted)
serialization; datasets and reports embed it so outputs can be traced back
to the exact inputs.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bundle import (ConnectionField, GaugeField, GaussBump, HiggsFieldData,
                     SeparableTerm)
from .errors import ConfigError
from .geometry import AHModel, ConformalBump, ModelKind
from .reconstruct import HiggsParameterization, ReconstructionConfig
from .spherebundle import SectionField, SphereBundleGrid
from .transport import TransportConfig
from .xray import FanSpec


def _cast(text: str, cast, section: str, key: str):
    """``cast(text)``, with a value it refuses reported as a ConfigError."""
    try:
        return cast(text)
    except ValueError as err:
        raise ConfigError(f"bad value {text!r}: {err}",
                          section=section, key=key) from err


def _floats(text: str, section: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as err:
        raise ConfigError(f"expected numbers, got {text!r}",
                          section=section, key=key) from err


def _point(text: str, section: str, key: str) -> tuple[float, float]:
    xy = _floats(text, section, key)
    if len(xy) != 2:
        raise ConfigError(f"a point needs two numbers, got {text!r}",
                          section=section, key=key)
    return xy[0], xy[1]


def _complex_matrix(flat: list[float], rank: int,
                    where: str) -> np.ndarray:
    if len(flat) != 2 * rank * rank:
        raise ConfigError(
            f"{where}: matrix needs {2 * rank * rank} numbers "
            f"(row-major re,im pairs), got {len(flat)}")
    arr = np.asarray(flat)
    return (arr[0::2] + 1j * arr[1::2]).reshape(rank, rank)


# The fields each section's ``term.N`` / ``basis.N`` values may set.
_TERM_FIELDS = {
    "connection": {"dir", "gen", "center", "sigma", "coeff"},
    "higgs": {"gen", "center", "sigma", "coeff"},
    "gauge": {"gen", "center", "sigma", "coeff"},
    "reconstruction": {"gen", "center", "sigma"},
}


def _term(value: str, rank: int, section: str, key: str) -> dict:
    """One separable term, cast: ``gen`` (a rank x rank matrix), ``bump``
    (from ``center`` and ``sigma``), ``coeff`` (default 1) and ``dir``
    (default 0).  A field the section does not read is refused."""
    fields = {}
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"malformed term field {part!r}",
                              section=section, key=key)
        name, _, val = part.partition("=")
        fields[name.strip()] = val.strip()
    known = _TERM_FIELDS[section]
    for name in fields:
        if name not in known:
            raise ConfigError(f"unknown term field {name!r}; known fields "
                              "are " + ", ".join(sorted(known)),
                              section=section, key=key)
    if not {"gen", "center", "sigma"} <= fields.keys():
        raise ConfigError("term needs gen=, center=, sigma=",
                          section=section, key=key)

    def get(name, cast, default=None):
        return _cast(fields.get(name, default), cast, section,
                     f"{key}: {name}")

    return {"gen": _complex_matrix(_floats(fields["gen"], section, key),
                                   rank, f"[{section}] {key}"),
            "bump": GaussBump(center=_point(fields["center"], section,
                                            f"{key}: center"),
                              sigma=get("sigma", float)),
            "coeff": get("coeff", float, "1"), "dir": get("dir", int, "0")}


def _numbered(body: dict, prefix: str,
              section: str) -> list[tuple[str, str]]:
    """(key, value) of the ``prefix.N`` keys in increasing integer N."""
    values = {}
    for key, value in body.items():
        if not key.startswith(prefix + "."):
            continue
        suffix = key[len(prefix) + 1:]
        if not (suffix.isascii() and suffix.isdigit()):
            raise ConfigError(f"{prefix} keys need an integer suffix",
                              section=section, key=key)
        if int(suffix) in values:
            raise ConfigError(f"duplicate {prefix} number {int(suffix)}",
                              section=section, key=key)
        values[int(suffix)] = (key, value)
    return [values[n] for n in sorted(values)]


# The keys each section reads; ``term.N`` stands for every numbered key.
_KNOWN_KEYS = {
    "experiment": {"seed"},
    "model": {"kind", "bump_center", "bump_radius", "bump_amplitude",
              "epsilon0"},
    "transport": {"rho_cut", "n_steps"},
    "connection": {"rank", "decay", "term.N"},
    "higgs": {"rank", "decay", "term.N"},
    "gauge": {"decay", "term.N"},
    "fan": {"mode", "count", "openings", "n_eta", "eta_max"},
    "grid": {"nx", "ntheta", "rho_grid"},
    "section": {"mode", "center", "radius", "power", "vector"},
    "reconstruction": {"rank", "decay", "tikhonov", "max_iter", "basis.N"},
}


def _check_keys(sections: dict[str, dict[str, str]]) -> None:
    """Refuse a section or key no builder reads, so a misspelt name fails
    instead of silently leaving the default in place."""
    for name, body in sections.items():
        known = _KNOWN_KEYS.get(name)
        if known is None:
            raise ConfigError("unknown section; known sections are "
                              + ", ".join(sorted(_KNOWN_KEYS)), section=name)
        for key in body:
            prefix, dot, _ = key.partition(".")
            if key not in known and not (dot and prefix + ".N" in known):
                raise ConfigError("unknown key; known keys are "
                                  + ", ".join(sorted(known)),
                                  section=name, key=key)


def _parse(text: str, where: str = "") -> dict[str, dict[str, str]]:
    """Sections of an INI text by lower-cased name; ``%`` is literal."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"{where}malformed config: {err}") from err
    return {name.lower(): dict(parser[name]) for name in parser.sections()}


class ExperimentConfig:
    """Parsed configuration with builders for every module's objects."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = {name.lower(): {k.lower(): v for k, v in body.items()}
                         for name, body in sections.items()}
        _check_keys(self.sections)
        if "experiment" not in self.sections \
                or "seed" not in self.sections["experiment"]:
            raise ConfigError("a seed is mandatory", section="experiment",
                              key="seed")
        self.seed = self._get("experiment", "seed", int)

    def override_seed(self, seed: Optional[int]) -> None:
        if seed is not None:
            self.seed = int(seed)
            self.sections["experiment"]["seed"] = str(int(seed))

    def override_section(self, name: str, spec: Optional[str]) -> None:
        """Replace a section from an inline 'key=val; key=val' string."""
        if spec is None:
            return
        body = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError("inline section fields look like "
                                  f"key=value, got {part!r}", section=name)
            key, _, val = part.partition("=")
            body[key.strip().lower()] = val.strip()
        _check_keys({name: body})
        self.sections[name] = body

    def merge_section_from_file(self, name: str, path: Optional[str]) -> None:
        if path is None:
            return
        with open(path, "r", encoding="utf-8") as fh:
            sections = _parse(fh.read(), f"{path}: ")
        if name not in sections:
            raise ConfigError(f"{path} has no [{name}] section",
                              section=name)
        _check_keys({name: sections[name]})
        self.sections[name] = sections[name]

    # -- I/O ----------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(_parse(text))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def canonical(self) -> str:
        buf = io.StringIO()
        for name in sorted(self.sections):
            buf.write(f"[{name}]\n")
            for key in sorted(self.sections[name]):
                buf.write(f"{key} = {self.sections[name][key]}\n")
        return buf.getvalue()

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    # -- accessors ------------------------------------------------------------

    def _section(self, name: str, required: bool = True) -> dict:
        body = self.sections.get(name)
        if body is None:
            if required:
                raise ConfigError("missing section", section=name)
            return {}
        return body

    def _get(self, section: str, key: str, cast, default=None):
        body = self._section(section, required=default is None)
        if key not in body:
            if default is not None:
                return default
            raise ConfigError("missing key", section=section, key=key)
        return _cast(body[key], cast, section, key)

    def _given(self, section: str, **casts) -> dict:
        """The keys of ``section`` that the config sets, cast; the dataclass
        being built supplies every default."""
        body = self._section(section, required=False)
        return {key: self._get(section, key, cast)
                for key, cast in casts.items() if key in body}

    # -- builders ------------------------------------------------------------

    def build_model(self) -> AHModel:
        body = self._section("model")
        kind_name = body.get("kind", "poincare_disk")
        try:
            kind = ModelKind(kind_name)
        except ValueError:
            raise ConfigError(f"unknown model kind {kind_name!r}",
                              section="model", key="kind")
        bump = None
        if kind is ModelKind.CONFORMAL_PERTURBED:
            center = _point(body.get("bump_center", ""), "model",
                            "bump_center")
            bump = ConformalBump(center=center,
                                 radius=self._get("model", "bump_radius",
                                                  float),
                                 amplitude=self._get("model",
                                                     "bump_amplitude", float))
        eps0 = self._get("model", "epsilon0", float, default=0.1)
        return AHModel(kind, bump=bump, epsilon0=eps0)

    def build_transport(self, rho_cut: Optional[float] = None
                        ) -> TransportConfig:
        kwargs = self._given("transport", rho_cut=float, n_steps=int)
        if rho_cut is not None:
            kwargs["rho_cut"] = rho_cut
        return TransportConfig(**kwargs)

    def _bundle_terms(self, section: str, rank: int):
        out = []
        for key, raw in _numbered(self._section(section), "term", section):
            term = _term(raw, rank, section, key)
            gen = term["coeff"] * term["gen"]
            if section == "connection":
                out.append(SeparableTerm(direction=term["dir"],
                                         generator=gen, bump=term["bump"]))
            else:
                out.append((gen, term["bump"]))
        return out

    def build_connection(self) -> ConnectionField:
        if "connection" not in self.sections:
            rank = self._get("higgs", "rank", int, default=2)
            return ConnectionField.zero(rank)
        rank = self._get("connection", "rank", int)
        decay = self._get("connection", "decay", int, default=3)
        return ConnectionField.from_terms(
            rank, self._bundle_terms("connection", rank), decay)

    def build_higgs(self, rank: int) -> HiggsFieldData:
        if "higgs" not in self.sections:
            return HiggsFieldData.zero(rank)
        decay = self._get("higgs", "decay", int, default=4)
        return HiggsFieldData.from_terms(
            rank, self._bundle_terms("higgs", rank), decay)

    def build_gauge(self, rank: int) -> Optional[GaugeField]:
        if "gauge" not in self.sections:
            return None
        decay = self._get("gauge", "decay", int, default=4)
        terms = self._bundle_terms("gauge", rank)
        return GaugeField(rank, terms, decay)

    def build_pair(self):
        """(model, connection, higgs) with an optional gauge applied."""
        from .bundle import gauge_transform

        model = self.build_model()
        conn = self.build_connection()
        higgs = self.build_higgs(conn.rank)
        gauge = self.build_gauge(conn.rank)
        if gauge is not None:
            conn, higgs = gauge_transform(conn, higgs, gauge)
        return model, conn, higgs

    def build_fan(self, count: Optional[int] = None) -> FanSpec:
        mode = self._section("fan", required=False).get("mode",
                                                        "boundary_pairs")
        n = count or self._get("fan", "count", int, default=100)
        if mode == "boundary_pairs":
            return FanSpec.uniform_pairs(
                n, n_openings=self._get("fan", "openings", int, default=8))
        if mode == "shooting":
            return FanSpec.uniform_shooting(
                n, n_eta=self._get("fan", "n_eta", int, default=5),
                eta_max=self._get("fan", "eta_max", float, default=2.0))
        raise ConfigError(f"unknown fan mode {mode!r}", section="fan",
                          key="mode")

    def grid_size(self, override: Optional[tuple[int, int]] = None
                  ) -> tuple[int, int]:
        """(nx, ntheta): ``override``, else ``[grid]`` (64 and 64 by
        default)."""
        return override or (self._get("grid", "nx", int, default=64),
                            self._get("grid", "ntheta", int, default=64))

    def build_grid(self, model: AHModel,
                   override: Optional[tuple[int, int]] = None
                   ) -> SphereBundleGrid:
        nx, ntheta = self.grid_size(override)
        rho_grid = self._get("grid", "rho_grid", float, default=0.05)
        return SphereBundleGrid(model, nx=nx, n_theta=ntheta,
                                rho_grid=rho_grid)

    def build_section(self, grid: SphereBundleGrid, rank: int
                      ) -> SectionField:
        body = self._section("section", required=False)
        m = self._get("section", "mode", int, default=1)
        if abs(m) >= grid.n_theta // 2:
            raise ConfigError(f"mode {m} aliases on a {grid.n_theta}-point "
                              "fiber grid (need |mode| < ntheta // 2)",
                              section="section", key="mode")
        center = _point(body.get("center", "0 0"), "section", "center")
        radius = self._get("section", "radius", float, default=0.7)
        power = self._get("section", "power", int, default=8)
        vec_raw = _floats(body.get("vector", "1 0"), "section", "vector")
        vec = np.asarray(vec_raw[0::2]) + 1j * np.asarray(vec_raw[1::2])
        if vec.shape != (rank,):
            raise ConfigError(f"section vector must have {rank} complex "
                              "components (re,im pairs)",
                              section="section", key="vector")
        s2 = np.sum((grid.points - np.asarray(center)) ** 2, axis=-1) \
            / radius**2
        prof = np.zeros_like(s2)
        inside = s2 < 1.0
        prof[inside] = np.cos(0.5 * math.pi * np.sqrt(s2[inside])) ** power
        # the band {m}: profile times vector in the single mode e^{im theta}
        return SectionField.from_modes(prof[:, :, None, None] * vec, grid,
                                       k_lo=m, compact_support=True)

    def build_reconstruction(self) -> tuple[HiggsParameterization,
                                            ReconstructionConfig]:
        body = self._section("reconstruction")
        rank = self._get("reconstruction", "rank", int, default=2)
        decay = self._get("reconstruction", "decay", int, default=4)
        basis = []
        for key, raw in _numbered(body, "basis", "reconstruction"):
            term = _term(raw, rank, "reconstruction", key)
            basis.append((term["gen"], term["bump"]))
        if not basis:
            raise ConfigError("reconstruction needs basis.N terms",
                              section="reconstruction", key="basis")
        params = HiggsParameterization(rank=rank, basis=basis,
                                       decay_N1=decay)
        cfg = ReconstructionConfig(
            **self._given("reconstruction", tikhonov=float, max_iter=int),
            transport=self.build_transport())
        return params, cfg
