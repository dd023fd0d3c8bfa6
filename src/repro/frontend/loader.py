"""Whole-application loading: sources + layouts + manifest → AndroidApp.

Directory convention (a trimmed Android project layout):

.. code-block:: text

    myapp/
      AndroidManifest.xml     (optional)
      src/**/*.alite          (Java-subset sources)
      res/layout/*.xml        (layout definitions)
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.app import AndroidApp, SourceFile
from repro.frontend.errors import ProjectError
from repro.frontend.lowering import compile_sources
from repro.hierarchy.cha import ClassHierarchy
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, null_span
from repro.obs.tracer import active as active_tracer
from repro.resources.manifest import Manifest, parse_manifest_xml
from repro.resources.menu import parse_menu_xml
from repro.resources.rtable import ResourceTable
from repro.resources.xml_parser import parse_layout_xml


def load_app_from_sources(
    name: str,
    sources: Sequence[str],
    layouts: Optional[Dict[str, str]] = None,
    manifest_xml: Optional[str] = None,
    menus: Optional[Dict[str, str]] = None,
    source_paths: Optional[Sequence[str]] = None,
    tracer: Optional[Tracer] = None,
) -> AndroidApp:
    """Build an app from in-memory source and layout texts.

    ``layouts`` maps layout names to XML texts (``menus`` likewise for
    menu resources). When no manifest is given, every activity subclass
    is declared, first one as launcher. ``source_paths``, when given,
    names each source text (project-relative) for source-level clients
    like lint suppressions and for the ``path`` of a
    :class:`~repro.frontend.errors.FrontendError`; otherwise synthetic
    names are used. ``tracer``, when given, records ``load.alite`` and
    ``load.xml`` spans.
    """
    span = tracer.span if tracer is not None else null_span
    if source_paths is None:
        source_paths = [f"<memory:{i}>" for i in range(len(sources))]
    elif len(source_paths) != len(sources):
        # zip() would silently drop the unmatched tail, leaving lint
        # suppressions and SARIF locations pointing at the wrong files.
        raise ValueError(
            f"source_paths has {len(source_paths)} entries for "
            f"{len(sources)} sources; lengths must match"
        )
    with span(obs_names.SPAN_LOAD_ALITE):
        program = compile_sources(list(sources), source_paths)
    source_files = [
        SourceFile(path=p, text=t) for p, t in zip(source_paths, sources)
    ]
    resources = ResourceTable()
    with span(obs_names.SPAN_LOAD_XML):
        for layout_name, xml in (layouts or {}).items():
            resources.add_layout(parse_layout_xml(layout_name, xml))
        for menu_name, xml in (menus or {}).items():
            resources.add_menu(parse_menu_xml(menu_name, xml))
        manifest = parse_manifest_xml(manifest_xml) if manifest_xml is not None else None
    resources.freeze_ids()

    if manifest is None:
        manifest = Manifest(package=name)
        hierarchy = ClassHierarchy(program)
        for clazz in program.application_classes():
            if hierarchy.is_activity_class(clazz.name) and not clazz.is_interface:
                manifest.add_activity(clazz.name, launcher=not manifest.activities)
    return AndroidApp(
        name=name,
        program=program,
        resources=resources,
        manifest=manifest,
        sources=source_files,
    )


def load_app_from_dir(
    path: str, name: Optional[str] = None, tracer: Optional[Tracer] = None
) -> AndroidApp:
    """Load a trimmed Android project directory into an app.

    With a tracer (explicit or ambient via :func:`repro.obs.enable`)
    the load runs in a ``load`` span whose ``load.alite``, ``load.dex``
    and ``load.xml`` children time compilation, Dalvik text decoding
    and XML parsing. Without one, tracing costs a branch or two per
    call and nothing per file or line.

    Raises :class:`~repro.frontend.errors.ProjectError` when ``path``
    is not a directory or holds neither ``.alite`` sources nor
    ``classes.smali``.
    """
    if not os.path.isdir(path):
        raise ProjectError("no such project directory")
    if tracer is None:
        tracer = active_tracer()
    if tracer is None:
        return _load_dir(path, name, None)
    with tracer.span(obs_names.PHASE_LOAD):
        return _load_dir(path, name, tracer)


def _load_dir(path: str, name: Optional[str], tracer: Optional[Tracer]) -> AndroidApp:
    if name is None:
        name = os.path.basename(os.path.abspath(path))
    sources: List[str] = []
    source_paths: List[str] = []
    src_root = os.path.join(path, "src")
    if os.path.isdir(src_root):
        for dirpath, dirs, files in os.walk(src_root):
            # os.walk yields directories in filesystem order; sorting in
            # place fixes the traversal so source order (hence synthetic
            # paths, node ids, and goldens) is filesystem-independent.
            dirs.sort()
            for filename in sorted(files):
                if filename.endswith((".alite", ".java")):
                    full = os.path.join(dirpath, filename)
                    with open(full, encoding="utf-8") as f:
                        sources.append(f.read())
                    source_paths.append(
                        os.path.relpath(full, path).replace(os.sep, "/")
                    )
    # Projects may ship code as Dalvik text instead of (or alongside)
    # sources — e.g. corpora dumped by repro.corpus.export.
    smali_path = os.path.join(path, "classes.smali")
    if not sources and os.path.isfile(smali_path):
        from repro.corpus.export import load_dumped_app

        return load_dumped_app(path, name=name, tracer=tracer)
    layouts = _read_xml_dir(os.path.join(path, "res", "layout"))
    menus = _read_xml_dir(os.path.join(path, "res", "menu"))
    manifest_xml = None
    manifest_path = os.path.join(path, "AndroidManifest.xml")
    if os.path.isfile(manifest_path):
        with open(manifest_path, encoding="utf-8") as f:
            manifest_xml = f.read()
    app = load_app_from_sources(
        name,
        sources,
        layouts,
        manifest_xml,
        menus=menus,
        source_paths=source_paths,
        tracer=tracer,
    )
    # Checked after the resources parse, so a malformed layout in a
    # project without code is still reported at its file.
    if not sources:
        raise ProjectError("no .alite sources and no classes.smali")
    return app


def _read_xml_dir(directory: str) -> Dict[str, str]:
    """Resource name -> text of each ``*.xml`` file in ``directory``."""
    texts: Dict[str, str] = {}
    if os.path.isdir(directory):
        for filename in sorted(os.listdir(directory)):
            if filename.endswith(".xml"):
                with open(os.path.join(directory, filename), encoding="utf-8") as f:
                    texts[os.path.splitext(filename)[0]] = f.read()
    return texts
