"""On-disk export/import of whole applications.

``dump_app`` writes an application as a browsable project directory —
Dalvik text for the code, serialised XML for layouts/menus/manifest —
and ``load_dumped_app`` reads it back. Round-tripping any app through
disk preserves the analysis solution (tested), which makes the
generated evaluation corpus inspectable and shippable:

.. code-block:: console

    $ python -m repro.corpus dump XBMC /tmp/xbmc
    $ python -m repro analyze /tmp/xbmc        # via classes.smali
"""

from __future__ import annotations

import os
from typing import Optional

from repro.app import AndroidApp
from repro.dex import DexSyntaxError, assemble_program, parse_dex_text
from repro.obs import names as obs_names
from repro.obs.tracer import Tracer, null_span
from repro.resources.manifest import parse_manifest_xml
from repro.resources.menu import parse_menu_xml
from repro.resources.rtable import ResourceTable
from repro.resources.serialize import layout_to_xml, manifest_to_xml, menu_to_xml
from repro.resources.xml_parser import parse_layout_xml


def dump_app(app: AndroidApp, path: str) -> None:
    """Write ``app`` as a project directory (Dalvik text + resources)."""
    os.makedirs(os.path.join(path, "res", "layout"), exist_ok=True)
    with open(os.path.join(path, "classes.smali"), "w", encoding="utf-8") as f:
        f.write(assemble_program(app.program))
    # Write resources in sorted-name order so a dump is byte-stable
    # regardless of resource-table insertion order; the loaders on the
    # other end (load_dumped_app, load_app_from_dir) sort their
    # directory listings, so id assignment round-trips deterministically.
    for name in sorted(app.resources.layout_names()):
        tree = app.resources.layout(name)
        with open(
            os.path.join(path, "res", "layout", f"{name}.xml"), "w", encoding="utf-8"
        ) as f:
            f.write(layout_to_xml(tree))
    menu_names = sorted(app.resources.menu_names())
    if menu_names:
        os.makedirs(os.path.join(path, "res", "menu"), exist_ok=True)
        for name in menu_names:
            with open(
                os.path.join(path, "res", "menu", f"{name}.xml"), "w", encoding="utf-8"
            ) as f:
                f.write(menu_to_xml(app.resources.menu(name)))
    # Standalone R.id entries (ids used only from code) live in
    # res/values/ids.xml, like Android's own <item type="id"> mechanism.
    os.makedirs(os.path.join(path, "res", "values"), exist_ok=True)
    with open(
        os.path.join(path, "res", "values", "ids.xml"), "w", encoding="utf-8"
    ) as f:
        f.write("<resources>\n")
        for id_name in sorted(app.resources.view_id_names()):
            f.write(f'  <item type="id" name="{id_name}"/>\n')
        f.write("</resources>\n")
    with open(os.path.join(path, "AndroidManifest.xml"), "w", encoding="utf-8") as f:
        f.write(manifest_to_xml(app.manifest))


def load_dumped_app(
    path: str, name: Optional[str] = None, tracer: Optional[Tracer] = None
) -> AndroidApp:
    """Load a project directory written by :func:`dump_app`.

    ``tracer``, when given, records a ``load.dex`` span around Dalvik
    text decoding and a ``load.xml`` span around reading and parsing
    the XML resources. A :class:`~repro.dex.DexSyntaxError` carries
    ``path = "classes.smali"``.
    """
    span = tracer.span if tracer is not None else null_span
    if name is None:
        name = os.path.basename(os.path.abspath(path))
    with open(os.path.join(path, "classes.smali"), encoding="utf-8") as f:
        text = f.read()
    try:
        # Called through this module's global: the benchmark's traced
        # run times the Dalvik layer by wrapping it here.
        with span(obs_names.SPAN_LOAD_DEX):
            program = parse_dex_text(text)
    except DexSyntaxError as exc:
        exc.path = "classes.smali"
        raise
    resources = ResourceTable()
    with span(obs_names.SPAN_LOAD_XML):
        layout_root = os.path.join(path, "res", "layout")
        if os.path.isdir(layout_root):
            for filename in sorted(os.listdir(layout_root)):
                if filename.endswith(".xml"):
                    with open(os.path.join(layout_root, filename), encoding="utf-8") as f:
                        resources.add_layout(
                            parse_layout_xml(os.path.splitext(filename)[0], f.read())
                        )
        menu_root = os.path.join(path, "res", "menu")
        if os.path.isdir(menu_root):
            for filename in sorted(os.listdir(menu_root)):
                if filename.endswith(".xml"):
                    with open(os.path.join(menu_root, filename), encoding="utf-8") as f:
                        resources.add_menu(
                            parse_menu_xml(os.path.splitext(filename)[0], f.read())
                        )
        ids_path = os.path.join(path, "res", "values", "ids.xml")
        if os.path.isfile(ids_path):
            import xml.etree.ElementTree as ET

            for item in ET.parse(ids_path).getroot():
                if item.tag == "item" and item.get("type") == "id":
                    resources.view_id(item.get("name"))
        with open(os.path.join(path, "AndroidManifest.xml"), encoding="utf-8") as f:
            manifest = parse_manifest_xml(f.read())
    resources.freeze_ids()
    return AndroidApp(name=name, program=program, resources=resources, manifest=manifest)
