"""XML serialization of deployment plans (DAnCE descriptor style).

The element structure follows the OMG D&C descriptors as rendered in the
paper's Figure 4 excerpt: ``<instance id=...>`` elements carrying
``<configProperty>`` children whose values are typed (``tk_string``,
``tk_long``, ``tk_double``, ``tk_boolean``), plus ``<connection>``
elements and a ``<workload>`` CDATA-ish payload holding the embedded
workload JSON.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Tuple

from repro.config.plan import ComponentInstance, Connection, DeploymentPlan
from repro.errors import ConfigurationError

_KIND_BY_TYPE = {
    str: "tk_string",
    int: "tk_long",
    float: "tk_double",
    bool: "tk_boolean",
}

_TAG_BY_KIND = {
    "tk_string": "string",
    "tk_long": "long",
    "tk_double": "double",
    "tk_boolean": "boolean",
}


def _encode_value(parent: ET.Element, value: Any) -> None:
    """Append a typed <value> tree for ``value`` (Figure 4 style)."""
    # bool is a subclass of int: check it first.
    if isinstance(value, bool):
        kind = "tk_boolean"
        text = "true" if value else "false"
    else:
        kind = _KIND_BY_TYPE.get(type(value))
        if kind is None:
            raise ConfigurationError(
                f"cannot encode property value of type {type(value).__name__}"
            )
        text = repr(value) if isinstance(value, float) else str(value)
    outer = ET.SubElement(parent, "value")
    type_el = ET.SubElement(outer, "type")
    ET.SubElement(type_el, "kind").text = kind
    inner = ET.SubElement(outer, "value")
    ET.SubElement(inner, _TAG_BY_KIND[kind]).text = text


def _decode_value(value_el: ET.Element) -> Any:
    kind_el = value_el.find("./type/kind")
    if kind_el is None or kind_el.text is None:
        raise ConfigurationError("configProperty value missing <type><kind>")
    kind = kind_el.text.strip()
    tag = _TAG_BY_KIND.get(kind)
    if tag is None:
        raise ConfigurationError(f"unknown type kind {kind!r}")
    payload = value_el.find(f"./value/{tag}")
    if payload is None or payload.text is None:
        raise ConfigurationError(f"configProperty value missing <{tag}>")
    text = payload.text.strip()
    if kind == "tk_string":
        return text
    if kind == "tk_boolean":
        return text.lower() == "true"
    try:
        return int(text) if kind == "tk_long" else float(text)
    except ValueError:
        raise ConfigurationError(f"{kind} value {text!r} is not a number") from None


def to_xml(plan: DeploymentPlan) -> str:
    """Render ``plan`` as a DAnCE-style XML descriptor string."""
    root = ET.Element("DeploymentPlan", {"label": plan.label})
    topology = ET.SubElement(root, "domain")
    ET.SubElement(topology, "manager").text = plan.manager_node
    for node in plan.app_nodes:
        ET.SubElement(topology, "node").text = node
    for inst in plan.instances:
        inst_el = ET.SubElement(root, "instance", {"id": inst.instance_id})
        ET.SubElement(inst_el, "node").text = inst.node
        ET.SubElement(inst_el, "implementation").text = inst.implementation
        for name, value in inst.properties:
            prop_el = ET.SubElement(inst_el, "configProperty")
            ET.SubElement(prop_el, "name").text = name
            _encode_value(prop_el, value)
    for conn in plan.connections:
        conn_el = ET.SubElement(
            root, "connection", {"name": conn.name, "kind": conn.kind}
        )
        src = ET.SubElement(conn_el, "source")
        ET.SubElement(src, "instance").text = conn.source_instance
        ET.SubElement(src, "port").text = conn.source_port
        dst = ET.SubElement(conn_el, "target")
        ET.SubElement(dst, "instance").text = conn.target_instance
        ET.SubElement(dst, "port").text = conn.target_port
    ET.SubElement(root, "workload").text = plan.workload_json
    _indent(root)
    return ET.tostring(root, encoding="unicode")


def parse_xml(text: str) -> DeploymentPlan:
    """Parse a descriptor produced by :func:`to_xml`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigurationError(f"malformed deployment XML: {exc}") from None
    if root.tag != "DeploymentPlan":
        raise ConfigurationError(
            f"root element must be DeploymentPlan, got {root.tag!r}"
        )
    label = root.get("label", "unnamed")
    domain = root.find("domain")
    if domain is None:
        raise ConfigurationError("missing <domain> topology element")
    manager_el = domain.find("manager")
    if manager_el is None or manager_el.text is None:
        raise ConfigurationError("missing <manager> element")
    manager = manager_el.text.strip()
    app_nodes = tuple(
        el.text.strip() for el in domain.findall("node") if el.text
    )
    instances = []
    for inst_el in root.findall("instance"):
        instance_id = inst_el.get("id")
        if not instance_id:
            raise ConfigurationError("<instance> missing id attribute")
        node_el = inst_el.find("node")
        impl_el = inst_el.find("implementation")
        if node_el is None or node_el.text is None:
            raise ConfigurationError(f"instance {instance_id!r} missing <node>")
        if impl_el is None or impl_el.text is None:
            raise ConfigurationError(
                f"instance {instance_id!r} missing <implementation>"
            )
        properties = {}
        for prop_el in inst_el.findall("configProperty"):
            name_el = prop_el.find("name")
            value_el = prop_el.find("value")
            if name_el is None or name_el.text is None or value_el is None:
                raise ConfigurationError(
                    f"instance {instance_id!r}: malformed configProperty"
                )
            properties[name_el.text.strip()] = _decode_value(value_el)
        instances.append(
            ComponentInstance.make(
                instance_id, impl_el.text.strip(), node_el.text.strip(), properties
            )
        )
    connections = []
    for conn_el in root.findall("connection"):
        src = conn_el.find("source")
        dst = conn_el.find("target")
        if src is None or dst is None:
            raise ConfigurationError("connection missing source/target")
        connections.append(
            Connection(
                name=conn_el.get("name", ""),
                kind=conn_el.get("kind", "facet"),
                source_instance=_req_text(src, "instance"),
                source_port=_req_text(src, "port"),
                target_instance=_req_text(dst, "instance"),
                target_port=_req_text(dst, "port"),
            )
        )
    workload_el = root.find("workload")
    workload_json = (
        workload_el.text.strip() if workload_el is not None and workload_el.text else ""
    )
    return DeploymentPlan(
        label=label,
        manager_node=manager,
        app_nodes=app_nodes,
        instances=tuple(instances),
        connections=tuple(connections),
        workload_json=workload_json,
    )


def _req_text(parent: ET.Element, tag: str) -> str:
    el = parent.find(tag)
    if el is None or el.text is None:
        raise ConfigurationError(f"connection missing <{tag}>")
    return el.text.strip()


def _indent(element: ET.Element, level: int = 0) -> None:
    """Pretty-print indentation (ElementTree.indent exists only on 3.9+
    as a module function; do it manually for portability)."""
    pad = "\n" + "  " * level
    if len(element):
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in element:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        last = element[-1]
        if not last.tail or not last.tail.strip():
            last.tail = pad
    elif level and (not element.tail or not element.tail.strip()):
        element.tail = pad
