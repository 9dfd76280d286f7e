"""Cloud Service Archive (.csar) packaging.

The DPE's TOSCA Designer "will allow users to automatically export the
Cloud Service Archive (.csar) package, which will contain relevant TOSCA
templates, scripts and files to allow workload deployment and management
in all TOSCA-compatible environments" (paper Sec. V). A CSAR is a zip
with a ``TOSCA-Metadata/TOSCA.meta`` manifest naming the entry template;
this module writes and reads such archives fully in memory, including
deployment artifacts (bitstreams, executables, operating-point
meta-information), and declares the artifact layout the DPE writes and
the static checker resolves against.
"""

from __future__ import annotations

import io
import zipfile
import zlib
from dataclasses import dataclass, field

from repro.core.errors import ValidationError
from repro.tosca.model import ServiceTemplate
from repro.tosca.parser import dump_service_template, parse_service_template

_META_PATH = "TOSCA-Metadata/TOSCA.meta"
_TEMPLATE_PATH = "Definitions/service-template.yaml"

# The artifact layout. A node's ``bitstream`` property names a file
# under BITSTREAM_DIR; the DSE's Pareto points and the synthesized
# countermeasures sit at fixed paths; each component may carry a C
# fallback, Verilog and an HLS report (``str.format`` of its name).
BITSTREAM_DIR = "bitstreams/"
OPERATING_POINTS_PATH = "meta/operating-points.json"
COUNTERMEASURES_PATH = "security/countermeasures.txt"
COMPONENT_PATHS = ("src/{}.c", "verilog/{}.v", "reports/{}_hls.json")


def bitstream_paths(service: ServiceTemplate) -> dict[str, str]:
    """Each node naming a bitstream, with the archive path it names."""
    return {name: BITSTREAM_DIR + template.properties["bitstream"]
            for name, template in service.node_templates.items()
            if isinstance(template.properties.get("bitstream"), str)}


def layout_paths(service: ServiceTemplate) -> set[str]:
    """Every artifact path the layout allows in *service*'s archive."""
    paths = {OPERATING_POINTS_PATH, COUNTERMEASURES_PATH,
             *bitstream_paths(service).values()}
    for name in service.node_templates:
        paths.update(path.format(name) for path in COMPONENT_PATHS)
    return paths


@dataclass
class CsarArchive:
    """An in-memory CSAR: one service template plus named artifacts."""

    service: ServiceTemplate
    artifacts: dict[str, bytes] = field(default_factory=dict)

    def add_artifact(self, path: str, content: bytes) -> None:
        """Attach a deployment artifact (bitstream, binary, metadata)."""
        if not path or path.startswith("/"):
            raise ValidationError(f"bad artifact path {path!r}")
        self.artifacts[path] = content

    def to_bytes(self) -> bytes:
        """Serialize to CSAR (zip) bytes."""
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
            meta = (
                "TOSCA-Meta-File-Version: 1.1\n"
                "CSAR-Version: 1.1\n"
                "Created-By: myrtus-repro DPE\n"
                f"Entry-Definitions: {_TEMPLATE_PATH}\n"
            )
            archive.writestr(_META_PATH, meta)
            archive.writestr(_TEMPLATE_PATH,
                             dump_service_template(self.service))
            for path, content in sorted(self.artifacts.items()):
                archive.writestr(f"Artifacts/{path}", content)
        return buffer.getvalue()

    @staticmethod
    def from_bytes(data: bytes) -> "CsarArchive":
        """Parse CSAR bytes back into an archive object."""
        if not isinstance(data, bytes):
            raise ValidationError("not a CSAR (expected bytes)")
        try:
            archive = zipfile.ZipFile(io.BytesIO(data))
        except zipfile.BadZipFile as exc:
            raise ValidationError("not a CSAR (bad zip)") from exc
        names = set(archive.namelist())
        if _META_PATH not in names:
            raise ValidationError("CSAR missing TOSCA-Metadata/TOSCA.meta")
        meta = _read_text(archive, _META_PATH)
        entry = None
        for line in meta.splitlines():
            if line.startswith("Entry-Definitions:"):
                entry = line.split(":", 1)[1].strip()
        if entry is None or entry not in names:
            raise ValidationError("CSAR metadata lacks a valid "
                                  "Entry-Definitions")
        service = parse_service_template(_read_text(archive, entry))
        artifacts = {
            name[len("Artifacts/"):]: _read(archive, name)
            for name in names if name.startswith("Artifacts/")
        }
        return CsarArchive(service=service, artifacts=artifacts)

    def artifact_inventory(self) -> dict[str, int]:
        """Artifact paths and sizes, for the Fig. 4 bench report."""
        return {path: len(content)
                for path, content in sorted(self.artifacts.items())}


def _read(archive: zipfile.ZipFile, name: str) -> bytes:
    """One entry's bytes; a damaged entry raises :class:`ValidationError`."""
    try:
        return archive.read(name)
    except (zipfile.BadZipFile, zlib.error, EOFError,
            NotImplementedError) as exc:
        raise ValidationError(f"CSAR entry {name} is corrupt: {exc}") from exc


def _read_text(archive: zipfile.ZipFile, name: str) -> str:
    try:
        return _read(archive, name).decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"CSAR entry {name} is not UTF-8: {exc}") \
            from exc
