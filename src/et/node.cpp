#include "et/node.h"

#include <limits>

#include "common/error.h"

namespace mystique::et {

Json
TensorMeta::to_json() const
{
    // Matches the PyTorch ET convention: the unique ID is a six-element
    // array, shape and dtype are carried alongside.
    Json j = Json::object();
    j.set("id", Json(Json::Array{Json(tensor_id), Json(storage_id), Json(offset), Json(numel),
                                 Json(itemsize), Json(device)}));
    Json shape_j = Json::array();
    for (int64_t d : shape)
        shape_j.push_back(Json(d));
    j.set("shape", std::move(shape_j));
    j.set("dtype", Json(dtype));
    return j;
}

TensorMeta
TensorMeta::from_json(const Json& j)
{
    TensorMeta t;
    const auto& id = j.at("id").as_array();
    if (id.size() != 6)
        MYST_THROW(ParseError, "tensor id tuple must have 6 elements, got " << id.size());
    t.tensor_id = id[0].as_int();
    t.storage_id = id[1].as_int();
    t.offset = id[2].as_int();
    t.numel = id[3].as_int();
    t.itemsize = id[4].as_int();
    t.device = id[5].as_string();
    // Ingest is where a hostile shape must stop: replay sizes buffers from
    // these numbers, so a negative dim or a numel the shape disagrees with
    // becomes a ParseError here, never an allocation later.
    int64_t product = 1;
    for (const auto& d : j.at("shape").as_array()) {
        const int64_t dim = d.as_int();
        if (dim < 0)
            MYST_THROW(ParseError, "tensor " << t.tensor_id << ": negative dimension " << dim);
        if (dim != 0 && product > std::numeric_limits<int64_t>::max() / dim)
            MYST_THROW(ParseError, "tensor " << t.tensor_id << ": shape product overflows int64");
        product *= dim;
        t.shape.push_back(dim);
    }
    if (t.numel != product)
        MYST_THROW(ParseError, "tensor " << t.tensor_id << ": numel " << t.numel
                                         << " differs from the shape's product " << product);
    t.dtype = j.at("dtype").as_string();
    return t;
}

Argument
Argument::none()
{
    return {};
}

Argument
Argument::from_int(int64_t v)
{
    Argument a;
    a.kind = Kind::kInt;
    a.int_value = v;
    return a;
}

Argument
Argument::from_double(double v)
{
    Argument a;
    a.kind = Kind::kDouble;
    a.double_value = v;
    return a;
}

Argument
Argument::from_bool(bool v)
{
    Argument a;
    a.kind = Kind::kBool;
    a.bool_value = v;
    return a;
}

Argument
Argument::from_string(std::string v)
{
    Argument a;
    a.kind = Kind::kString;
    a.string_value = std::move(v);
    return a;
}

Argument
Argument::from_int_list(std::vector<int64_t> v)
{
    Argument a;
    a.kind = Kind::kIntList;
    a.int_list = std::move(v);
    return a;
}

Argument
Argument::from_tensor(TensorMeta t)
{
    Argument a;
    a.kind = Kind::kTensor;
    a.tensors.push_back(std::move(t));
    return a;
}

Argument
Argument::from_tensor_list(std::vector<TensorMeta> t)
{
    Argument a;
    a.kind = Kind::kTensorList;
    a.tensors = std::move(t);
    return a;
}

namespace {

const char*
kind_name(Argument::Kind k)
{
    switch (k) {
      case Argument::Kind::kNone: return "none";
      case Argument::Kind::kTensor: return "tensor";
      case Argument::Kind::kTensorList: return "tensor_list";
      case Argument::Kind::kInt: return "int";
      case Argument::Kind::kIntList: return "int_list";
      case Argument::Kind::kDouble: return "double";
      case Argument::Kind::kBool: return "bool";
      case Argument::Kind::kString: return "string";
    }
    return "?";
}

Argument::Kind
kind_from_name(const std::string& s)
{
    if (s == "none") return Argument::Kind::kNone;
    if (s == "tensor") return Argument::Kind::kTensor;
    if (s == "tensor_list") return Argument::Kind::kTensorList;
    if (s == "int") return Argument::Kind::kInt;
    if (s == "int_list") return Argument::Kind::kIntList;
    if (s == "double") return Argument::Kind::kDouble;
    if (s == "bool") return Argument::Kind::kBool;
    if (s == "string") return Argument::Kind::kString;
    MYST_THROW(ParseError, "unknown argument kind '" << s << "'");
}

} // namespace

Json
Argument::to_json() const
{
    Json j = Json::object();
    j.set("kind", Json(kind_name(kind)));
    switch (kind) {
      case Kind::kNone:
        break;
      case Kind::kInt:
        j.set("value", Json(int_value));
        break;
      case Kind::kDouble:
        j.set("value", Json(double_value));
        break;
      case Kind::kBool:
        j.set("value", Json(bool_value));
        break;
      case Kind::kString:
        j.set("value", Json(string_value));
        break;
      case Kind::kIntList: {
        Json arr = Json::array();
        for (int64_t v : int_list)
            arr.push_back(Json(v));
        j.set("value", std::move(arr));
        break;
      }
      case Kind::kTensor:
        j.set("value", tensors.at(0).to_json());
        break;
      case Kind::kTensorList: {
        Json arr = Json::array();
        for (const auto& t : tensors)
            arr.push_back(t.to_json());
        j.set("value", std::move(arr));
        break;
      }
    }
    return j;
}

Argument
Argument::from_json(const Json& j)
{
    Argument a;
    a.kind = kind_from_name(j.at("kind").as_string());
    switch (a.kind) {
      case Kind::kNone:
        break;
      case Kind::kInt:
        a.int_value = j.at("value").as_int();
        break;
      case Kind::kDouble:
        a.double_value = j.at("value").as_double();
        break;
      case Kind::kBool:
        a.bool_value = j.at("value").as_bool();
        break;
      case Kind::kString:
        a.string_value = j.at("value").as_string();
        break;
      case Kind::kIntList:
        for (const auto& v : j.at("value").as_array())
            a.int_list.push_back(v.as_int());
        break;
      case Kind::kTensor:
        a.tensors.push_back(TensorMeta::from_json(j.at("value")));
        break;
      case Kind::kTensorList:
        for (const auto& v : j.at("value").as_array())
            a.tensors.push_back(TensorMeta::from_json(v));
        break;
    }
    return a;
}

const char*
to_string(NodeKind k)
{
    switch (k) {
      case NodeKind::kRoot: return "root";
      case NodeKind::kOperator: return "operator";
      case NodeKind::kWrapper: return "wrapper";
    }
    return "?";
}

NodeKind
node_kind_from_string(const std::string& s)
{
    if (s == "root") return NodeKind::kRoot;
    if (s == "operator") return NodeKind::kOperator;
    if (s == "wrapper") return NodeKind::kWrapper;
    MYST_THROW(ParseError, "unknown node kind '" << s << "'");
}

Json
Node::to_json() const
{
    Json j = Json::object();
    j.set("id", Json(id));
    j.set("name", Json(name));
    j.set("parent", Json(parent));
    j.set("kind", Json(to_string(kind)));
    j.set("category", Json(dev::to_string(category)));
    j.set("op_schema", Json(op_schema));
    j.set("tid", Json(static_cast<int64_t>(tid)));
    Json ins = Json::array();
    for (const auto& a : inputs)
        ins.push_back(a.to_json());
    j.set("inputs", std::move(ins));
    Json outs = Json::array();
    for (const auto& a : outputs)
        outs.push_back(a.to_json());
    j.set("outputs", std::move(outs));
    if (pg_id >= 0)
        j.set("pg", Json(pg_id));
    return j;
}

Node
Node::from_json(const Json& j)
{
    Node n;
    n.id = j.at("id").as_int();
    n.name = j.at("name").as_string();
    n.parent = j.at("parent").as_int();
    n.kind = node_kind_from_string(j.at("kind").as_string());
    n.category = dev::op_category_from_string(j.at("category").as_string());
    n.op_schema = j.at("op_schema").as_string();
    const int64_t tid = j.at("tid").as_int();
    if (tid != 1 && tid != 2)
        MYST_THROW(ParseError, "node " << n.id << ": tid " << tid
                                       << " is neither 1 (main) nor 2 (autograd)");
    n.tid = static_cast<int>(tid);
    for (const auto& a : j.at("inputs").as_array())
        n.inputs.push_back(Argument::from_json(a));
    for (const auto& a : j.at("outputs").as_array())
        n.outputs.push_back(Argument::from_json(a));
    if (const Json* pg = j.find("pg"))
        n.pg_id = pg->as_int();
    return n;
}

OpId
resolve_op_id(const Node& node)
{
    OpId id = node.op_id.load();
    if (id == kInvalidOpId) {
        id = OpInterner::instance().intern(node.name);
        node.op_id.store(id);
    }
    return id;
}

} // namespace mystique::et
